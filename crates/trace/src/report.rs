//! Machine-readable run reports.
//!
//! Two artifacts: [`RunReport`] (`run_report.json`, the full per-cell
//! record — metrics, timing, interval series) and [`BenchSummary`]
//! (`BENCH_run.json`, the compact perf/fidelity baseline: per-target
//! wall-clock, headline geomean speedups, fault totals). Both serialize to
//! and parse from [`Json`] with exact round-tripping, so regressions can be
//! diffed across commits.

use grit_metrics::{
    FaultCounters, IntervalSeries, LatencyBreakdown, LatencyClass, RunMetrics, SchemeMix,
};
use grit_sim::Cycle;

use crate::json::Json;

/// Schema tag written into every [`RunReport`]. Bumped to v2 when cells
/// gained `status` / `error` fields (resilient batch execution), to v3
/// when cell metrics gained the per-class `fabric` traffic object
/// (topology-driven interconnect), to v4 when injected-fault runs
/// gained the `resilience` counter object (emitted only when fault
/// injection ran, so uninjected documents stay v3-shaped), and to v5
/// when profiled runs gained the top-level `profile` object (emitted
/// only when self-profiling ran, so unprofiled documents stay
/// v4-shaped), and to v6 when cells gained the optional canonical
/// `spec` string (the serialized `RunSpec` the cell ran under, also the
/// result-store key), and to v7 when multi-page-size runs gained the
/// `pagesize` counter object (emitted only when large pages are enabled,
/// so uniform-4 KB documents stay v6-shaped), and to v8 when runs that
/// touch a result store gained the top-level `store` counter object
/// (hits / misses / quarantined files; emitted only when a store was in
/// play, so store-less documents stay v7-shaped). Older documents still
/// parse: absent objects default to zeros or `None`.
pub const RUN_REPORT_SCHEMA: &str = "grit-run-report/v8";
/// v7 run-report schema tag, still accepted by [`RunReport::from_json`].
pub const RUN_REPORT_SCHEMA_V7: &str = "grit-run-report/v7";
/// v6 run-report schema tag, still accepted by [`RunReport::from_json`].
pub const RUN_REPORT_SCHEMA_V6: &str = "grit-run-report/v6";
/// v5 run-report schema tag, still accepted by [`RunReport::from_json`].
pub const RUN_REPORT_SCHEMA_V5: &str = "grit-run-report/v5";
/// v4 run-report schema tag, still accepted by [`RunReport::from_json`].
pub const RUN_REPORT_SCHEMA_V4: &str = "grit-run-report/v4";
/// v3 run-report schema tag, still accepted by [`RunReport::from_json`].
pub const RUN_REPORT_SCHEMA_V3: &str = "grit-run-report/v3";
/// v2 run-report schema tag, still accepted by [`RunReport::from_json`].
pub const RUN_REPORT_SCHEMA_V2: &str = "grit-run-report/v2";
/// Schema tag written into every [`BenchSummary`].
pub const BENCH_SCHEMA: &str = "grit-bench/v1";

fn req<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    req(v, key)?.as_u64().ok_or_else(|| format!("field {key:?} is not an integer"))
}

fn req_f64(v: &Json, key: &str) -> Result<f64, String> {
    req(v, key)?.as_f64().ok_or_else(|| format!("field {key:?} is not a number"))
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    Ok(req(v, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))?
        .to_string())
}

fn req_bool(v: &Json, key: &str) -> Result<bool, String> {
    req(v, key)?.as_bool().ok_or_else(|| format!("field {key:?} is not a bool"))
}

fn req_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    req(v, key)?.as_arr().ok_or_else(|| format!("field {key:?} is not an array"))
}

fn faults_to_json(f: &FaultCounters) -> Json {
    Json::Obj(vec![
        ("local_faults".into(), Json::UInt(f.local_faults)),
        ("protection_faults".into(), Json::UInt(f.protection_faults)),
        ("migrations".into(), Json::UInt(f.migrations)),
        ("duplications".into(), Json::UInt(f.duplications)),
        ("collapses".into(), Json::UInt(f.collapses)),
        ("evictions".into(), Json::UInt(f.evictions)),
        ("scheme_changes".into(), Json::UInt(f.scheme_changes)),
        // Derived, for human readers; ignored when parsing.
        ("total_faults".into(), Json::UInt(f.total_faults())),
    ])
}

fn faults_from_json(v: &Json) -> Result<FaultCounters, String> {
    Ok(FaultCounters {
        local_faults: req_u64(v, "local_faults")?,
        protection_faults: req_u64(v, "protection_faults")?,
        migrations: req_u64(v, "migrations")?,
        duplications: req_u64(v, "duplications")?,
        collapses: req_u64(v, "collapses")?,
        evictions: req_u64(v, "evictions")?,
        scheme_changes: req_u64(v, "scheme_changes")?,
    })
}

/// Wall-clock timing of one cell, split into workload build and simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CellTiming {
    /// Seconds spent obtaining the workload (≈0 on a cache hit).
    pub build_seconds: f64,
    /// Seconds spent inside `Simulation::run`.
    pub sim_seconds: f64,
    /// Whether the workload came from the process-wide cache.
    pub workload_cache_hit: bool,
    /// Whether the cell was loaded from an on-disk resume store rather
    /// than simulated in this process.
    pub resumed: bool,
}

/// Per-class fabric traffic of one cell (grit-run-report/v3): how many
/// payload bytes crossed each wire class and how long transfers queued
/// behind busy wires, accumulated hop by hop on routed topologies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricReport {
    /// Bytes over direct GPU↔GPU NVLinks.
    pub nvlink_bytes: u64,
    /// Bytes over switch uplinks/trunks (NvSwitch, hierarchical routers).
    pub switch_bytes: u64,
    /// Bytes over the hierarchical inter-node bottleneck.
    pub inter_node_bytes: u64,
    /// Bytes over host PCIe (data + control).
    pub pcie_bytes: u64,
    /// Queueing cycles on NVLink hops.
    pub nvlink_queue_cycles: u64,
    /// Queueing cycles on switch hops.
    pub switch_queue_cycles: u64,
    /// Queueing cycles on inter-node hops.
    pub inter_node_queue_cycles: u64,
    /// Queueing cycles on PCIe links.
    pub pcie_queue_cycles: u64,
}

impl FabricReport {
    /// Extracts the snapshot from the `fabric_class_bytes` /
    /// `fabric_queue_cycles` aux series the runner records (class order:
    /// nvlink, switch, inter-node, pcie); zeros when the series are absent
    /// (e.g. pre-topology reports or synthetic metrics).
    pub fn from_aux(aux: &[(String, Vec<f64>)]) -> Self {
        let series = |name: &str| -> [u64; 4] {
            let mut out = [0u64; 4];
            if let Some((_, vs)) = aux.iter().find(|(k, _)| k == name) {
                for (slot, v) in out.iter_mut().zip(vs) {
                    *slot = *v as u64;
                }
            }
            out
        };
        let bytes = series("fabric_class_bytes");
        let queue = series("fabric_queue_cycles");
        FabricReport {
            nvlink_bytes: bytes[0],
            switch_bytes: bytes[1],
            inter_node_bytes: bytes[2],
            pcie_bytes: bytes[3],
            nvlink_queue_cycles: queue[0],
            switch_queue_cycles: queue[1],
            inter_node_queue_cycles: queue[2],
            pcie_queue_cycles: queue[3],
        }
    }

    /// Total queueing cycles across every wire class.
    pub fn total_queue_cycles(&self) -> u64 {
        self.nvlink_queue_cycles
            + self.switch_queue_cycles
            + self.inter_node_queue_cycles
            + self.pcie_queue_cycles
    }

    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("nvlink_bytes".into(), Json::UInt(self.nvlink_bytes)),
            ("switch_bytes".into(), Json::UInt(self.switch_bytes)),
            ("inter_node_bytes".into(), Json::UInt(self.inter_node_bytes)),
            ("pcie_bytes".into(), Json::UInt(self.pcie_bytes)),
            (
                "nvlink_queue_cycles".into(),
                Json::UInt(self.nvlink_queue_cycles),
            ),
            (
                "switch_queue_cycles".into(),
                Json::UInt(self.switch_queue_cycles),
            ),
            (
                "inter_node_queue_cycles".into(),
                Json::UInt(self.inter_node_queue_cycles),
            ),
            (
                "pcie_queue_cycles".into(),
                Json::UInt(self.pcie_queue_cycles),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(FabricReport {
            nvlink_bytes: req_u64(v, "nvlink_bytes")?,
            switch_bytes: req_u64(v, "switch_bytes")?,
            inter_node_bytes: req_u64(v, "inter_node_bytes")?,
            pcie_bytes: req_u64(v, "pcie_bytes")?,
            nvlink_queue_cycles: req_u64(v, "nvlink_queue_cycles")?,
            switch_queue_cycles: req_u64(v, "switch_queue_cycles")?,
            inter_node_queue_cycles: req_u64(v, "inter_node_queue_cycles")?,
            pcie_queue_cycles: req_u64(v, "pcie_queue_cycles")?,
        })
    }
}

/// Fault-injection outcome counters of one cell (grit-run-report/v4):
/// what was injected, how the system degraded, and that every blocked
/// operation resolved. Zeros — and omitted from the JSON — when the run
/// had no fault plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Fault windows that became active.
    pub faults_injected: u64,
    /// Fault windows that closed (component recovered).
    pub recoveries: u64,
    /// DRAM page frames retired by injected ECC faults.
    pub frames_retired: u64,
    /// Resident pages force-evicted by frame retirement.
    pub pages_force_evicted: u64,
    /// Faults serviced while a handler stall storm was active.
    pub storm_stalled_faults: u64,
    /// Migrations that found their route down on first attempt.
    pub migrations_blocked: u64,
    /// Backoff retries scheduled for blocked migrations.
    pub migration_retries: u64,
    /// Blocked migrations that eventually succeeded over a recovered or
    /// rerouted path.
    pub retry_successes: u64,
    /// Blocked migrations that gave up and left the page remote.
    pub fallback_remote: u64,
    /// Blocked transfers staged through host memory.
    pub host_staged: u64,
    /// Invariant sweeps run (epoch boundaries + post-fault checks).
    pub invariant_checks: u64,
}

impl ResilienceReport {
    /// Extracts the snapshot from the `resilience_counters` aux series the
    /// runner records (field order above); zeros when the series is absent
    /// (uninjected runs, older reports).
    pub fn from_aux(aux: &[(String, Vec<f64>)]) -> Self {
        let mut out = [0u64; 11];
        if let Some((_, vs)) = aux.iter().find(|(k, _)| k == "resilience_counters") {
            for (slot, v) in out.iter_mut().zip(vs) {
                *slot = *v as u64;
            }
        }
        ResilienceReport {
            faults_injected: out[0],
            recoveries: out[1],
            frames_retired: out[2],
            pages_force_evicted: out[3],
            storm_stalled_faults: out[4],
            migrations_blocked: out[5],
            migration_retries: out[6],
            retry_successes: out[7],
            fallback_remote: out[8],
            host_staged: out[9],
            invariant_checks: out[10],
        }
    }

    /// Whether every blocked migration resolved: retried to success, fell
    /// back to remote access, or was staged through the host.
    pub fn all_blocked_resolved(&self) -> bool {
        self.migrations_blocked <= self.retry_successes + self.fallback_remote + self.host_staged
    }

    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("faults_injected".into(), Json::UInt(self.faults_injected)),
            ("recoveries".into(), Json::UInt(self.recoveries)),
            ("frames_retired".into(), Json::UInt(self.frames_retired)),
            (
                "pages_force_evicted".into(),
                Json::UInt(self.pages_force_evicted),
            ),
            (
                "storm_stalled_faults".into(),
                Json::UInt(self.storm_stalled_faults),
            ),
            (
                "migrations_blocked".into(),
                Json::UInt(self.migrations_blocked),
            ),
            (
                "migration_retries".into(),
                Json::UInt(self.migration_retries),
            ),
            ("retry_successes".into(), Json::UInt(self.retry_successes)),
            ("fallback_remote".into(), Json::UInt(self.fallback_remote)),
            ("host_staged".into(), Json::UInt(self.host_staged)),
            ("invariant_checks".into(), Json::UInt(self.invariant_checks)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(ResilienceReport {
            faults_injected: req_u64(v, "faults_injected")?,
            recoveries: req_u64(v, "recoveries")?,
            frames_retired: req_u64(v, "frames_retired")?,
            pages_force_evicted: req_u64(v, "pages_force_evicted")?,
            storm_stalled_faults: req_u64(v, "storm_stalled_faults")?,
            migrations_blocked: req_u64(v, "migrations_blocked")?,
            migration_retries: req_u64(v, "migration_retries")?,
            retry_successes: req_u64(v, "retry_successes")?,
            fallback_remote: req_u64(v, "fallback_remote")?,
            host_staged: req_u64(v, "host_staged")?,
            invariant_checks: req_u64(v, "invariant_checks")?,
        })
    }
}

/// Multi-page-size activity counters of one cell (grit-run-report/v7):
/// how often 2 MB frames coalesced and splintered, why they splintered,
/// and what coalescing did to access-counter granularity. Zeros — and
/// omitted from the JSON — when the run managed uniform 4 KB pages.
///
/// The field order mirrors the `pagesize_counters` aux series recorded
/// by the runner (`grit_pagesize::PageSizeCounters::to_series`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagesizeReport {
    /// Frames coalesced into a 2 MB mapping.
    pub coalesces: u64,
    /// Frames splintered because a peer GPU started sharing the range.
    pub splinters_false_sharing: u64,
    /// Frames splintered by partial capacity eviction / host staging.
    pub splinters_eviction: u64,
    /// Frames splintered by ECC frame retirement.
    pub splinters_retirement: u64,
    /// Access-counter trips on ordinary 64 KB groups.
    pub counter_trips_base: u64,
    /// Access-counter trips on coalesced frame-granularity groups.
    pub counter_trips_large: u64,
    /// Total 64 KB groups aliased into tripped frame groups.
    pub counter_groups_aliased: u64,
    /// Highest number of simultaneously coalesced frames observed.
    pub coalesced_peak: u64,
    /// Frames still coalesced when the run finished.
    pub coalesced_final: u64,
}

impl PagesizeReport {
    /// Extracts the snapshot from the `pagesize_counters` aux series the
    /// runner records (field order above); zeros when the series is
    /// absent (uniform-4 KB runs, older reports).
    pub fn from_aux(aux: &[(String, Vec<f64>)]) -> Self {
        let mut out = [0u64; 9];
        if let Some((_, vs)) = aux.iter().find(|(k, _)| k == "pagesize_counters") {
            for (slot, v) in out.iter_mut().zip(vs) {
                *slot = *v as u64;
            }
        }
        PagesizeReport {
            coalesces: out[0],
            splinters_false_sharing: out[1],
            splinters_eviction: out[2],
            splinters_retirement: out[3],
            counter_trips_base: out[4],
            counter_trips_large: out[5],
            counter_groups_aliased: out[6],
            coalesced_peak: out[7],
            coalesced_final: out[8],
        }
    }

    /// Total splinters across every cause.
    pub fn splinters(&self) -> u64 {
        self.splinters_false_sharing + self.splinters_eviction + self.splinters_retirement
    }

    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("coalesces".into(), Json::UInt(self.coalesces)),
            (
                "splinters_false_sharing".into(),
                Json::UInt(self.splinters_false_sharing),
            ),
            (
                "splinters_eviction".into(),
                Json::UInt(self.splinters_eviction),
            ),
            (
                "splinters_retirement".into(),
                Json::UInt(self.splinters_retirement),
            ),
            (
                "counter_trips_base".into(),
                Json::UInt(self.counter_trips_base),
            ),
            (
                "counter_trips_large".into(),
                Json::UInt(self.counter_trips_large),
            ),
            (
                "counter_groups_aliased".into(),
                Json::UInt(self.counter_groups_aliased),
            ),
            ("coalesced_peak".into(), Json::UInt(self.coalesced_peak)),
            ("coalesced_final".into(), Json::UInt(self.coalesced_final)),
            // Derived, for human readers; ignored when parsing.
            ("splinters_total".into(), Json::UInt(self.splinters())),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(PagesizeReport {
            coalesces: req_u64(v, "coalesces")?,
            splinters_false_sharing: req_u64(v, "splinters_false_sharing")?,
            splinters_eviction: req_u64(v, "splinters_eviction")?,
            splinters_retirement: req_u64(v, "splinters_retirement")?,
            counter_trips_base: req_u64(v, "counter_trips_base")?,
            counter_trips_large: req_u64(v, "counter_trips_large")?,
            counter_groups_aliased: req_u64(v, "counter_groups_aliased")?,
            coalesced_peak: req_u64(v, "coalesced_peak")?,
            coalesced_final: req_u64(v, "coalesced_final")?,
        })
    }
}

/// A `RunMetrics` snapshot in plain-data form.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsReport {
    /// Simulated execution time in cycles.
    pub total_cycles: u64,
    /// Total accesses replayed.
    pub accesses: u64,
    /// Accesses satisfied locally.
    pub local_accesses: u64,
    /// Accesses that crossed to a peer.
    pub remote_accesses: u64,
    /// Latency attribution in [`LatencyClass::ALL`] order.
    pub breakdown: [u64; 6],
    /// Fault/event counters.
    pub faults: FaultCounters,
    /// Scheme usage at L2 TLB misses: `[on_touch, access_counter,
    /// duplication]`.
    pub scheme_mix: [u64; 3],
    /// NVLink payload bytes.
    pub nvlink_bytes: u64,
    /// PCIe payload bytes.
    pub pcie_bytes: u64,
    /// Peak page-oversubscription ratio.
    pub oversubscription_rate: f64,
    /// Per-class fabric traffic (v3; zeros when absent from older reports).
    pub fabric: FabricReport,
    /// Fault-injection outcomes (v4; zeros when the run was uninjected or
    /// the report predates v4).
    pub resilience: ResilienceReport,
    /// Multi-page-size activity (v7; zeros when the run managed uniform
    /// 4 KB pages or the report predates v7).
    pub pagesize: PagesizeReport,
    /// Auxiliary named series, sorted by name for deterministic output.
    pub aux: Vec<(String, Vec<f64>)>,
}

impl MetricsReport {
    /// Snapshots live run metrics (aux series are sorted by name so two
    /// identical runs serialize identically).
    pub fn from_metrics(m: &RunMetrics) -> Self {
        let mut breakdown = [0u64; 6];
        for (slot, class) in breakdown.iter_mut().zip(LatencyClass::ALL) {
            *slot = m.breakdown.get(class);
        }
        let mut aux: Vec<(String, Vec<f64>)> =
            m.aux.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        aux.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsReport {
            total_cycles: m.total_cycles,
            accesses: m.accesses,
            local_accesses: m.local_accesses,
            remote_accesses: m.remote_accesses,
            breakdown,
            faults: m.faults,
            scheme_mix: [
                m.scheme_mix.on_touch,
                m.scheme_mix.access_counter,
                m.scheme_mix.duplication,
            ],
            nvlink_bytes: m.nvlink_bytes,
            pcie_bytes: m.pcie_bytes,
            oversubscription_rate: m.oversubscription_rate,
            fabric: FabricReport::from_aux(&aux),
            resilience: ResilienceReport::from_aux(&aux),
            pagesize: PagesizeReport::from_aux(&aux),
            aux,
        }
    }

    /// Serializes to a JSON object.
    pub fn to_json(&self) -> Json {
        let breakdown = Json::Obj(
            LatencyClass::ALL
                .iter()
                .zip(self.breakdown)
                .map(|(c, v)| (c.label().to_string(), Json::UInt(v)))
                .collect(),
        );
        let scheme_mix = Json::Obj(vec![
            ("on_touch".into(), Json::UInt(self.scheme_mix[0])),
            ("access_counter".into(), Json::UInt(self.scheme_mix[1])),
            ("duplication".into(), Json::UInt(self.scheme_mix[2])),
        ]);
        let aux = Json::Obj(
            self.aux
                .iter()
                .map(|(k, vs)| {
                    (
                        k.clone(),
                        Json::Arr(vs.iter().map(|&v| Json::Float(v)).collect()),
                    )
                })
                .collect(),
        );
        let mut obj = Json::Obj(vec![
            ("total_cycles".into(), Json::UInt(self.total_cycles)),
            ("accesses".into(), Json::UInt(self.accesses)),
            ("local_accesses".into(), Json::UInt(self.local_accesses)),
            ("remote_accesses".into(), Json::UInt(self.remote_accesses)),
            ("breakdown".into(), breakdown),
            ("faults".into(), faults_to_json(&self.faults)),
            ("scheme_mix".into(), scheme_mix),
            ("nvlink_bytes".into(), Json::UInt(self.nvlink_bytes)),
            ("pcie_bytes".into(), Json::UInt(self.pcie_bytes)),
            (
                "oversubscription_rate".into(),
                Json::Float(self.oversubscription_rate),
            ),
            ("fabric".into(), self.fabric.to_json()),
            ("aux".into(), aux),
        ]);
        // The resilience object appears only on injected runs, keeping
        // uninjected documents v3-shaped for older consumers.
        if self.resilience != ResilienceReport::default() {
            if let Json::Obj(fields) = &mut obj {
                let at = fields.len() - 1; // before "aux"
                fields.insert(at, ("resilience".into(), self.resilience.to_json()));
            }
        }
        // Likewise, the pagesize object appears only on runs that
        // managed large pages, keeping uniform-4 KB documents v6-shaped.
        if self.pagesize != PagesizeReport::default() {
            if let Json::Obj(fields) = &mut obj {
                let at = fields.len() - 1; // before "aux"
                fields.insert(at, ("pagesize".into(), self.pagesize.to_json()));
            }
        }
        obj
    }

    /// Parses the object form produced by [`MetricsReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let bd = req(v, "breakdown")?;
        let mut breakdown = [0u64; 6];
        for (slot, class) in breakdown.iter_mut().zip(LatencyClass::ALL) {
            *slot = req_u64(bd, class.label())?;
        }
        let sm = req(v, "scheme_mix")?;
        let aux_obj = req(v, "aux")?.as_obj().ok_or("field \"aux\" is not an object")?;
        let mut aux = Vec::with_capacity(aux_obj.len());
        for (k, vs) in aux_obj {
            let vs = vs.as_arr().ok_or_else(|| format!("aux series {k:?} is not an array"))?;
            let series: Result<Vec<f64>, String> = vs
                .iter()
                .map(|x| x.as_f64().ok_or_else(|| format!("aux series {k:?} has a non-number")))
                .collect();
            aux.push((k.clone(), series?));
        }
        Ok(MetricsReport {
            total_cycles: req_u64(v, "total_cycles")?,
            accesses: req_u64(v, "accesses")?,
            local_accesses: req_u64(v, "local_accesses")?,
            remote_accesses: req_u64(v, "remote_accesses")?,
            breakdown,
            faults: faults_from_json(req(v, "faults")?)?,
            scheme_mix: [
                req_u64(sm, "on_touch")?,
                req_u64(sm, "access_counter")?,
                req_u64(sm, "duplication")?,
            ],
            nvlink_bytes: req_u64(v, "nvlink_bytes")?,
            pcie_bytes: req_u64(v, "pcie_bytes")?,
            oversubscription_rate: req_f64(v, "oversubscription_rate")?,
            // v2 documents predate the fabric object; default to zeros.
            fabric: match v.get("fabric") {
                Some(f) => FabricReport::from_json(f)?,
                None => FabricReport::default(),
            },
            // Present only on injected v4 runs; default to zeros.
            resilience: match v.get("resilience") {
                Some(r) => ResilienceReport::from_json(r)?,
                None => ResilienceReport::default(),
            },
            // Present only on large-page v7 runs; default to zeros.
            pagesize: match v.get("pagesize") {
                Some(p) => PagesizeReport::from_json(p)?,
                None => PagesizeReport::default(),
            },
            aux,
        })
    }

    /// Rebuilds a live [`RunMetrics`] from the snapshot — the exact
    /// inverse of [`MetricsReport::from_metrics`] up to aux-map ordering
    /// (which `from_metrics` canonicalizes by sorting).
    pub fn to_metrics(&self) -> RunMetrics {
        RunMetrics {
            total_cycles: self.total_cycles,
            accesses: self.accesses,
            local_accesses: self.local_accesses,
            remote_accesses: self.remote_accesses,
            breakdown: self.breakdown_struct(),
            faults: self.faults,
            scheme_mix: SchemeMix {
                on_touch: self.scheme_mix[0],
                access_counter: self.scheme_mix[1],
                duplication: self.scheme_mix[2],
            },
            nvlink_bytes: self.nvlink_bytes,
            pcie_bytes: self.pcie_bytes,
            oversubscription_rate: self.oversubscription_rate,
            aux: self.aux.iter().cloned().collect(),
        }
    }

    /// Rebuilds the latency breakdown accumulator from the snapshot.
    pub fn breakdown_struct(&self) -> LatencyBreakdown {
        let mut b = LatencyBreakdown::default();
        for (class, &v) in LatencyClass::ALL.iter().zip(&self.breakdown) {
            b.record(*class, v);
        }
        b
    }
}

/// A named interval time series in plain-data form.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesReport {
    /// Series name, e.g. `"page_by_gpu"`.
    pub name: String,
    /// Interval length in cycles.
    pub interval_cycles: Cycle,
    /// One row of bucket counters per interval.
    pub rows: Vec<Vec<u64>>,
}

impl SeriesReport {
    /// Snapshots a live [`IntervalSeries`] under `name`.
    pub fn from_series(name: &str, s: &IntervalSeries) -> Self {
        SeriesReport {
            name: name.to_string(),
            interval_cycles: s.interval_cycles(),
            rows: s.iter().map(|(_, row)| row.to_vec()).collect(),
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("interval_cycles".into(), Json::UInt(self.interval_cycles)),
            (
                "rows".into(),
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| Json::Arr(r.iter().map(|&v| Json::UInt(v)).collect()))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let mut rows = Vec::new();
        for row in req_arr(v, "rows")? {
            let row = row.as_arr().ok_or("series row is not an array")?;
            let counts: Result<Vec<u64>, String> = row
                .iter()
                .map(|x| x.as_u64().ok_or_else(|| "series row has a non-integer".to_string()))
                .collect();
            rows.push(counts?);
        }
        Ok(SeriesReport {
            name: req_str(v, "name")?,
            interval_cycles: req_u64(v, "interval_cycles")?,
            rows,
        })
    }
}

/// Everything recorded about one executed cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellReport {
    /// Position in batch declaration order (also the trace `"seq"`).
    pub seq: u64,
    /// Application name.
    pub app: String,
    /// Policy label.
    pub policy: String,
    /// GPUs simulated.
    pub num_gpus: u64,
    /// Page size in bytes.
    pub page_size: u64,
    /// Workload scale factor.
    pub scale: f64,
    /// Workload intensity factor.
    pub intensity: f64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Seconds spent obtaining the workload.
    pub build_seconds: f64,
    /// Seconds spent simulating.
    pub sim_seconds: f64,
    /// Whether the workload came from the cache.
    pub workload_cache_hit: bool,
    /// Events captured by the tracer for this cell (0 when tracing is off).
    pub events_recorded: u64,
    /// Cell outcome: `"ok"`, `"resumed"`, or a [`CellError`] status label
    /// (`"panicked"`, `"timed-out"`, `"cancelled"`, ...).
    ///
    /// [`CellError`]: grit_sim::CellError
    pub status: String,
    /// Human-readable failure description when the cell failed.
    pub error: Option<String>,
    /// Canonical `RunSpec` string the cell ran under (v6; also the
    /// result-store cache key). `None` in pre-v6 documents and for
    /// producers that do not know the spec.
    pub spec: Option<String>,
    /// Full metrics snapshot (all-zero for failed cells).
    pub metrics: MetricsReport,
    /// Observer time series, when an observer was attached.
    pub series: Vec<SeriesReport>,
}

impl CellReport {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("seq".into(), Json::UInt(self.seq)),
            ("app".into(), Json::Str(self.app.clone())),
            ("policy".into(), Json::Str(self.policy.clone())),
            ("num_gpus".into(), Json::UInt(self.num_gpus)),
            ("page_size".into(), Json::UInt(self.page_size)),
            ("scale".into(), Json::Float(self.scale)),
            ("intensity".into(), Json::Float(self.intensity)),
            ("seed".into(), Json::UInt(self.seed)),
            ("build_seconds".into(), Json::Float(self.build_seconds)),
            ("sim_seconds".into(), Json::Float(self.sim_seconds)),
            (
                "workload_cache_hit".into(),
                Json::Bool(self.workload_cache_hit),
            ),
            ("events_recorded".into(), Json::UInt(self.events_recorded)),
            ("status".into(), Json::Str(self.status.clone())),
            (
                "error".into(),
                match &self.error {
                    Some(e) => Json::Str(e.clone()),
                    None => Json::Null,
                },
            ),
            ("metrics".into(), self.metrics.to_json()),
            (
                "series".into(),
                Json::Arr(self.series.iter().map(SeriesReport::to_json).collect()),
            ),
        ];
        // Like `profile`: the key exists only when known, so v5
        // consumers never see it on documents that predate specs.
        if let Some(spec) = &self.spec {
            fields.push(("spec".into(), Json::Str(spec.clone())));
        }
        Json::Obj(fields)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let series: Result<Vec<SeriesReport>, String> =
            req_arr(v, "series")?.iter().map(SeriesReport::from_json).collect();
        Ok(CellReport {
            seq: req_u64(v, "seq")?,
            app: req_str(v, "app")?,
            policy: req_str(v, "policy")?,
            num_gpus: req_u64(v, "num_gpus")?,
            page_size: req_u64(v, "page_size")?,
            scale: req_f64(v, "scale")?,
            intensity: req_f64(v, "intensity")?,
            seed: req_u64(v, "seed")?,
            build_seconds: req_f64(v, "build_seconds")?,
            sim_seconds: req_f64(v, "sim_seconds")?,
            workload_cache_hit: req_bool(v, "workload_cache_hit")?,
            events_recorded: req_u64(v, "events_recorded")?,
            status: req_str(v, "status")?,
            error: match req(v, "error")? {
                Json::Null => None,
                e => Some(e.as_str().ok_or("field \"error\" is not a string or null")?.to_string()),
            },
            spec: v.get("spec").and_then(Json::as_str).map(String::from),
            metrics: MetricsReport::from_json(req(v, "metrics")?)?,
            series: series?,
        })
    }
}

/// Profile of one `run_batch` invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BatchProfile {
    /// Cells the batch executed.
    pub cells: u64,
    /// Worker threads used.
    pub jobs: u64,
    /// Wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
    /// Workload-cache hits during the batch.
    pub workload_cache_hits: u64,
    /// Workload-cache misses (builds) during the batch.
    pub workload_cache_misses: u64,
}

impl BatchProfile {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("cells".into(), Json::UInt(self.cells)),
            ("jobs".into(), Json::UInt(self.jobs)),
            ("wall_seconds".into(), Json::Float(self.wall_seconds)),
            (
                "workload_cache_hits".into(),
                Json::UInt(self.workload_cache_hits),
            ),
            (
                "workload_cache_misses".into(),
                Json::UInt(self.workload_cache_misses),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(BatchProfile {
            cells: req_u64(v, "cells")?,
            jobs: req_u64(v, "jobs")?,
            wall_seconds: req_f64(v, "wall_seconds")?,
            workload_cache_hits: req_u64(v, "workload_cache_hits")?,
            workload_cache_misses: req_u64(v, "workload_cache_misses")?,
        })
    }
}

/// Wall-clock of one `repro` target (the `time:` lines, made durable).
#[derive(Clone, Debug, PartialEq)]
pub struct TargetTiming {
    /// Target name, e.g. `"fig18"`.
    pub name: String,
    /// Wall-clock seconds.
    pub seconds: f64,
}

impl TargetTiming {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("seconds".into(), Json::Float(self.seconds)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(TargetTiming {
            name: req_str(v, "name")?,
            seconds: req_f64(v, "seconds")?,
        })
    }
}

/// Wall-clock totals of one profiled phase, summed across every thread
/// that entered it; nested spans count inclusively toward their phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseEntry {
    /// Phase name (`grit-prof` snake_case, e.g. `"fault_handling"`).
    pub phase: String,
    /// Total nanoseconds spent inside the phase.
    pub nanos: u64,
    /// Spans recorded.
    pub count: u64,
}

impl PhaseEntry {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("phase".into(), Json::Str(self.phase.clone())),
            ("nanos".into(), Json::UInt(self.nanos)),
            ("count".into(), Json::UInt(self.count)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(PhaseEntry {
            phase: req_str(v, "phase")?,
            nanos: req_u64(v, "nanos")?,
            count: req_u64(v, "count")?,
        })
    }
}

/// One cycle-domain histogram in report form: sample statistics plus
/// the non-empty power-of-two buckets as `(lower_bound, count)` pairs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistReport {
    /// Values recorded.
    pub samples: u64,
    /// Arithmetic mean of recorded values.
    pub mean: f64,
    /// Largest recorded value.
    pub max: u64,
    /// Non-empty buckets: `(lower_bound_cycles, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistReport {
    /// Decodes the flattened aux form the runner records:
    /// `[samples, mean, max, lb0, c0, lb1, c1, ...]`.
    pub fn from_flat(vs: &[f64]) -> Self {
        if vs.len() < 3 {
            return HistReport::default();
        }
        HistReport {
            samples: vs[0] as u64,
            mean: vs[1],
            max: vs[2] as u64,
            buckets: vs[3..].chunks_exact(2).map(|p| (p[0] as u64, p[1] as u64)).collect(),
        }
    }

    /// Accumulates another histogram with the same bucket geometry.
    pub fn merge(&mut self, other: &HistReport) {
        let total = self.mean * self.samples as f64 + other.mean * other.samples as f64;
        self.samples += other.samples;
        self.mean = if self.samples == 0 {
            0.0
        } else {
            total / self.samples as f64
        };
        self.max = self.max.max(other.max);
        for &(lb, c) in &other.buckets {
            match self.buckets.iter_mut().find(|(b, _)| *b == lb) {
                Some((_, n)) => *n += c,
                None => self.buckets.push((lb, c)),
            }
        }
        self.buckets.sort_unstable_by_key(|&(lb, _)| lb);
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("samples".into(), Json::UInt(self.samples)),
            ("mean".into(), Json::Float(self.mean)),
            ("max".into(), Json::UInt(self.max)),
            (
                "buckets".into(),
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(lb, c)| Json::Arr(vec![Json::UInt(lb), Json::UInt(c)]))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let mut buckets = Vec::new();
        for pair in req_arr(v, "buckets")? {
            let pair = pair.as_arr().ok_or("histogram bucket is not an array")?;
            match pair {
                [lb, c] => buckets.push((
                    lb.as_u64().ok_or("bucket bound is not an integer")?,
                    c.as_u64().ok_or("bucket count is not an integer")?,
                )),
                _ => return Err("histogram bucket is not a pair".into()),
            }
        }
        Ok(HistReport {
            samples: req_u64(v, "samples")?,
            mean: req_f64(v, "mean")?,
            max: req_u64(v, "max")?,
            buckets,
        })
    }
}

/// Deterministic cycle-domain profile sections, accumulated over every
/// successful cell's `prof_*` aux series. Everything here is measured in
/// simulated cycles, so the object is byte-identical at any `--jobs`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CycleProfile {
    /// Per-fault queue wait behind the serial fault handler.
    pub fault_occupancy: HistReport,
    /// Per-migration dispatch-to-done latency.
    pub migration_latency: HistReport,
    /// Per-hop queue wait behind busy fabric wires.
    pub fabric_queue: HistReport,
    /// MLP-window stall cycles summed over every GPU of every cell.
    pub mlp_stall_cycles: u64,
}

impl CycleProfile {
    /// Accumulates one cell's `prof_*` aux series (sorted-aux form).
    pub fn absorb_aux(&mut self, aux: &[(String, Vec<f64>)]) {
        let find = |name: &str| aux.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_slice());
        if let Some(vs) = find("prof_fault_occupancy_hist") {
            self.fault_occupancy.merge(&HistReport::from_flat(vs));
        }
        if let Some(vs) = find("prof_migration_latency_hist") {
            self.migration_latency.merge(&HistReport::from_flat(vs));
        }
        if let Some(vs) = find("prof_fabric_queue_hist") {
            self.fabric_queue.merge(&HistReport::from_flat(vs));
        }
        if let Some(vs) = find("prof_mlp_stall_cycles") {
            self.mlp_stall_cycles += vs.iter().map(|&v| v as u64).sum::<u64>();
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("fault_occupancy".into(), self.fault_occupancy.to_json()),
            ("migration_latency".into(), self.migration_latency.to_json()),
            ("fabric_queue".into(), self.fabric_queue.to_json()),
            ("mlp_stall_cycles".into(), Json::UInt(self.mlp_stall_cycles)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(CycleProfile {
            fault_occupancy: HistReport::from_json(req(v, "fault_occupancy")?)?,
            migration_latency: HistReport::from_json(req(v, "migration_latency")?)?,
            fabric_queue: HistReport::from_json(req(v, "fabric_queue")?)?,
            mlp_stall_cycles: req_u64(v, "mlp_stall_cycles")?,
        })
    }
}

/// The run's self-profile (grit-run-report/v5), emitted only when
/// profiling was enabled. `wall` is wall-clock and varies run to run;
/// `cycle` is the deterministic comparison surface. Documents written
/// while the engine had a sharded mode may also carry a `speculation`
/// object, which the parser ignores.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileReport {
    /// Wall-clock phase totals, phases with at least one span.
    pub wall: Vec<PhaseEntry>,
    /// Deterministic cycle-domain sections.
    pub cycle: CycleProfile,
}

impl ProfileReport {
    /// Serializes to the report's `profile` object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "wall".into(),
                Json::Arr(self.wall.iter().map(PhaseEntry::to_json).collect()),
            ),
            ("cycle".into(), self.cycle.to_json()),
        ])
    }

    /// Parses the object form produced by [`ProfileReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let wall: Result<Vec<PhaseEntry>, String> =
            req_arr(v, "wall")?.iter().map(PhaseEntry::from_json).collect();
        Ok(ProfileReport {
            wall: wall?,
            cycle: CycleProfile::from_json(req(v, "cycle")?)?,
        })
    }
}

/// Aggregated result-store traffic of one run (v8): how often cells
/// were answered from the store, how often they had to simulate, and
/// how many store files failed integrity checks and were quarantined.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Cells answered from the store.
    pub hits: u64,
    /// Cells that had to run because the store had no (valid) entry.
    pub misses: u64,
    /// Store files that failed an integrity check (bad JSON, bad
    /// checksum, schema or key mismatch) and were moved to the
    /// `quarantine/` subdirectory.
    pub quarantined: u64,
}

impl StoreCounters {
    /// Whether any traffic was recorded at all.
    pub fn any(&self) -> bool {
        self.hits != 0 || self.misses != 0 || self.quarantined != 0
    }

    /// Field-wise sum, for aggregating per-batch counters into a run.
    pub fn absorb(&mut self, other: StoreCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.quarantined += other.quarantined;
    }

    /// Serializes the `store` object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("hits".into(), Json::UInt(self.hits)),
            ("misses".into(), Json::UInt(self.misses)),
            ("quarantined".into(), Json::UInt(self.quarantined)),
        ])
    }

    /// Parses the `store` object.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(StoreCounters {
            hits: req_u64(v, "hits")?,
            misses: req_u64(v, "misses")?,
            quarantined: req_u64(v, "quarantined")?,
        })
    }
}

/// The full machine-readable record of one `repro` invocation
/// (`run_report.json`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Workload scale factor of the run.
    pub scale: f64,
    /// Workload intensity factor of the run.
    pub intensity: f64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Worker threads (`--jobs`).
    pub jobs: u64,
    /// Total wall-clock seconds across all targets.
    pub total_seconds: f64,
    /// Simulated-system configuration as `(name, value)` pairs.
    pub system: Vec<(String, f64)>,
    /// Per-target wall-clock timings.
    pub targets: Vec<TargetTiming>,
    /// Per-batch execution profiles.
    pub batches: Vec<BatchProfile>,
    /// Every cell executed, in execution order.
    pub cells: Vec<CellReport>,
    /// Self-profile of the run (v5), present only when profiling ran.
    pub profile: Option<ProfileReport>,
    /// Result-store traffic (v8), present only when a store was in play.
    pub store: Option<StoreCounters>,
}

impl RunReport {
    /// Serializes to the `run_report.json` document.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::Obj(vec![
            ("schema".into(), Json::Str(RUN_REPORT_SCHEMA.into())),
            ("scale".into(), Json::Float(self.scale)),
            ("intensity".into(), Json::Float(self.intensity)),
            ("seed".into(), Json::UInt(self.seed)),
            ("jobs".into(), Json::UInt(self.jobs)),
            ("total_seconds".into(), Json::Float(self.total_seconds)),
            (
                "system".into(),
                Json::Obj(self.system.iter().map(|(k, v)| (k.clone(), Json::Float(*v))).collect()),
            ),
            (
                "targets".into(),
                Json::Arr(self.targets.iter().map(TargetTiming::to_json).collect()),
            ),
            (
                "batches".into(),
                Json::Arr(self.batches.iter().map(|b| b.to_json()).collect()),
            ),
            (
                "cells".into(),
                Json::Arr(self.cells.iter().map(CellReport::to_json).collect()),
            ),
        ]);
        // Unprofiled runs stay v4-shaped (no `profile` key) for older
        // consumers that iterate object fields exhaustively.
        if let Some(p) = &self.profile {
            if let Json::Obj(fields) = &mut obj {
                fields.push(("profile".into(), p.to_json()));
            }
        }
        // Likewise, store-less runs stay v7-shaped (no `store` key).
        if let Some(s) = &self.store {
            if let Json::Obj(fields) = &mut obj {
                fields.push(("store".into(), s.to_json()));
            }
        }
        obj
    }

    /// Parses a `run_report.json` document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first schema violation.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let schema = req_str(v, "schema")?;
        if schema != RUN_REPORT_SCHEMA
            && schema != RUN_REPORT_SCHEMA_V7
            && schema != RUN_REPORT_SCHEMA_V6
            && schema != RUN_REPORT_SCHEMA_V5
            && schema != RUN_REPORT_SCHEMA_V4
            && schema != RUN_REPORT_SCHEMA_V3
            && schema != RUN_REPORT_SCHEMA_V2
        {
            return Err(format!("unsupported run-report schema: {schema:?}"));
        }
        let system_obj = req(v, "system")?.as_obj().ok_or("field \"system\" is not an object")?;
        let mut system = Vec::with_capacity(system_obj.len());
        for (k, val) in system_obj {
            let val = val.as_f64().ok_or_else(|| format!("system entry {k:?} is not a number"))?;
            system.push((k.clone(), val));
        }
        let targets: Result<Vec<TargetTiming>, String> =
            req_arr(v, "targets")?.iter().map(TargetTiming::from_json).collect();
        let batches: Result<Vec<BatchProfile>, String> =
            req_arr(v, "batches")?.iter().map(BatchProfile::from_json).collect();
        let cells: Result<Vec<CellReport>, String> =
            req_arr(v, "cells")?.iter().map(CellReport::from_json).collect();
        Ok(RunReport {
            scale: req_f64(v, "scale")?,
            intensity: req_f64(v, "intensity")?,
            seed: req_u64(v, "seed")?,
            jobs: req_u64(v, "jobs")?,
            total_seconds: req_f64(v, "total_seconds")?,
            system,
            targets: targets?,
            batches: batches?,
            cells: cells?,
            // Absent on unprofiled runs and every pre-v5 document.
            profile: match v.get("profile") {
                Some(p) => Some(ProfileReport::from_json(p)?),
                None => None,
            },
            // Absent on store-less runs and every pre-v8 document.
            store: match v.get("store") {
                Some(s) => Some(StoreCounters::from_json(s)?),
                None => None,
            },
        })
    }
}

/// The Fig. 17 headline speedups of GRIT over the three static schemes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HeadlineSpeedups {
    /// Geomean speedup vs. on-touch migration.
    pub vs_on_touch: f64,
    /// Geomean speedup vs. access-counter migration.
    pub vs_access_counter: f64,
    /// Geomean speedup vs. duplication.
    pub vs_duplication: f64,
}

impl HeadlineSpeedups {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("vs_on_touch".into(), Json::Float(self.vs_on_touch)),
            (
                "vs_access_counter".into(),
                Json::Float(self.vs_access_counter),
            ),
            ("vs_duplication".into(), Json::Float(self.vs_duplication)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(HeadlineSpeedups {
            vs_on_touch: req_f64(v, "vs_on_touch")?,
            vs_access_counter: req_f64(v, "vs_access_counter")?,
            vs_duplication: req_f64(v, "vs_duplication")?,
        })
    }
}

/// The compact perf/fidelity baseline (`BENCH_run.json`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchSummary {
    /// Workload scale factor of the run.
    pub scale: f64,
    /// Workload intensity factor of the run.
    pub intensity: f64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Worker threads (`--jobs`).
    pub jobs: u64,
    /// Total wall-clock seconds across all targets.
    pub total_seconds: f64,
    /// Cells executed across all targets.
    pub cells_run: u64,
    /// Fault counters summed over every executed cell.
    pub fault_totals: FaultCounters,
    /// Per-target wall-clock timings.
    pub targets: Vec<TargetTiming>,
    /// Fig. 17 geomean speedups, when fig17 (or `run_summary`) ran.
    pub headline: Option<HeadlineSpeedups>,
    /// Fig. 18 geomean of GRIT's normalized fault count, when fig18 ran.
    pub fig18_fault_geomean: Option<f64>,
}

impl BenchSummary {
    /// Serializes to the `BENCH_run.json` document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(BENCH_SCHEMA.into())),
            ("scale".into(), Json::Float(self.scale)),
            ("intensity".into(), Json::Float(self.intensity)),
            ("seed".into(), Json::UInt(self.seed)),
            ("jobs".into(), Json::UInt(self.jobs)),
            ("total_seconds".into(), Json::Float(self.total_seconds)),
            ("cells_run".into(), Json::UInt(self.cells_run)),
            ("fault_totals".into(), faults_to_json(&self.fault_totals)),
            (
                "targets".into(),
                Json::Arr(self.targets.iter().map(TargetTiming::to_json).collect()),
            ),
            (
                "headline".into(),
                match &self.headline {
                    Some(h) => h.to_json(),
                    None => Json::Null,
                },
            ),
            (
                "fig18_fault_geomean".into(),
                match self.fig18_fault_geomean {
                    Some(g) => Json::Float(g),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Parses a `BENCH_run.json` document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first schema violation.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let schema = req_str(v, "schema")?;
        if schema != BENCH_SCHEMA {
            return Err(format!("unsupported bench schema: {schema:?}"));
        }
        let targets: Result<Vec<TargetTiming>, String> =
            req_arr(v, "targets")?.iter().map(TargetTiming::from_json).collect();
        let headline = match req(v, "headline")? {
            Json::Null => None,
            h => Some(HeadlineSpeedups::from_json(h)?),
        };
        let fig18 = match req(v, "fig18_fault_geomean")? {
            Json::Null => None,
            g => Some(g.as_f64().ok_or("field \"fig18_fault_geomean\" is not a number")?),
        };
        Ok(BenchSummary {
            scale: req_f64(v, "scale")?,
            intensity: req_f64(v, "intensity")?,
            seed: req_u64(v, "seed")?,
            jobs: req_u64(v, "jobs")?,
            total_seconds: req_f64(v, "total_seconds")?,
            cells_run: req_u64(v, "cells_run")?,
            fault_totals: faults_from_json(req(v, "fault_totals")?)?,
            targets: targets?,
            headline,
            fig18_fault_geomean: fig18,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grit_metrics::SchemeMix;

    fn sample_metrics() -> RunMetrics {
        let mut m = RunMetrics {
            total_cycles: 1000,
            accesses: 500,
            local_accesses: 400,
            remote_accesses: 100,
            faults: FaultCounters {
                local_faults: 10,
                protection_faults: 2,
                migrations: 6,
                duplications: 3,
                collapses: 1,
                evictions: 4,
                scheme_changes: 5,
            },
            scheme_mix: SchemeMix {
                on_touch: 7,
                access_counter: 8,
                duplication: 9,
            },
            nvlink_bytes: 4096,
            pcie_bytes: 64,
            oversubscription_rate: 1.25,
            ..Default::default()
        };
        m.breakdown.record(LatencyClass::Host, 123);
        m.breakdown.record(LatencyClass::PageMigration, 45);
        m.set_aux("per_gpu_faults", vec![3.0, 7.0]);
        m.set_aux("a_sorted_first", vec![1.5]);
        m.set_aux("fabric_class_bytes", vec![4096.0, 512.0, 128.0, 64.0]);
        m.set_aux("fabric_queue_cycles", vec![20.0, 9.0, 3.0, 1.0]);
        m
    }

    fn sample_cell(seq: u64) -> CellReport {
        CellReport {
            seq,
            app: "BFS".into(),
            policy: "grit".into(),
            num_gpus: 4,
            page_size: 4096,
            scale: 0.04,
            intensity: 1.5,
            seed: 0xBEEF,
            build_seconds: 0.25,
            sim_seconds: 1.75,
            workload_cache_hit: seq > 0,
            events_recorded: 31,
            status: "ok".into(),
            error: None,
            spec: Some(format!("app=BFS;policy=grit;seq={seq}")),
            metrics: MetricsReport::from_metrics(&sample_metrics()),
            series: vec![SeriesReport {
                name: "page_by_gpu".into(),
                interval_cycles: 1_000_000,
                rows: vec![vec![1, 2], vec![0, 3]],
            }],
        }
    }

    #[test]
    fn metrics_snapshot_sorts_aux_and_keeps_breakdown_order() {
        let r = MetricsReport::from_metrics(&sample_metrics());
        assert_eq!(r.aux[0].0, "a_sorted_first");
        assert_eq!(r.breakdown[1], 123); // Host is slot 1 in ALL order
        assert_eq!(r.breakdown_struct().get(LatencyClass::PageMigration), 45);
    }

    #[test]
    fn metrics_report_round_trips() {
        let r = MetricsReport::from_metrics(&sample_metrics());
        let back = MetricsReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn metrics_report_inverts_to_live_metrics() {
        let m = sample_metrics();
        let r = MetricsReport::from_metrics(&m);
        let live = r.to_metrics();
        assert_eq!(live.total_cycles, m.total_cycles);
        assert_eq!(live.faults, m.faults);
        assert_eq!(live.scheme_mix, m.scheme_mix);
        assert_eq!(live.aux.len(), m.aux.len());
        assert_eq!(live.aux.get("per_gpu_faults"), m.aux.get("per_gpu_faults"));
        // Snapshotting the rebuilt metrics is a fixed point.
        assert_eq!(MetricsReport::from_metrics(&live), r);
    }

    #[test]
    fn failed_cell_report_round_trips() {
        let mut c = sample_cell(3);
        c.status = "panicked".into();
        c.error = Some("cell panicked: boom".into());
        let back = CellReport::from_json(&Json::parse(&c.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn run_report_round_trips() {
        let report = RunReport {
            scale: 0.04,
            intensity: 1.5,
            seed: 0xBEEF,
            jobs: 4,
            total_seconds: 12.5,
            system: vec![("num_gpus".into(), 4.0), ("page_size".into(), 4096.0)],
            targets: vec![
                TargetTiming {
                    name: "fig17".into(),
                    seconds: 5.5,
                },
                TargetTiming {
                    name: "fig18".into(),
                    seconds: 7.0,
                },
            ],
            batches: vec![BatchProfile {
                cells: 12,
                jobs: 4,
                wall_seconds: 5.25,
                workload_cache_hits: 9,
                workload_cache_misses: 3,
            }],
            cells: vec![sample_cell(0), sample_cell(1)],
            profile: None,
            store: None,
        };
        let text = report.to_json().to_string();
        let back = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn bench_summary_round_trips_with_and_without_options() {
        let mut bench = BenchSummary {
            scale: 1.0,
            intensity: 1.0,
            seed: 1,
            jobs: 2,
            total_seconds: 3.5,
            cells_run: 24,
            fault_totals: FaultCounters {
                local_faults: 100,
                migrations: 40,
                ..Default::default()
            },
            targets: vec![TargetTiming {
                name: "fig18".into(),
                seconds: 3.5,
            }],
            headline: Some(HeadlineSpeedups {
                vs_on_touch: 2.27,
                vs_access_counter: 1.34,
                vs_duplication: 1.86,
            }),
            fig18_fault_geomean: Some(0.45),
        };
        let back =
            BenchSummary::from_json(&Json::parse(&bench.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, bench);

        bench.headline = None;
        bench.fig18_fault_geomean = None;
        let back =
            BenchSummary::from_json(&Json::parse(&bench.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, bench);
    }

    #[test]
    fn documents_from_the_sharded_engine_still_parse() {
        // The committed baseline that `repro bench-diff` gates against
        // still carries the retired `sim_threads` field.
        let baseline = include_str!("../../../BENCH_baseline.json");
        assert!(baseline.contains("\"sim_threads\":1"));
        let bench = BenchSummary::from_json(&Json::parse(baseline).unwrap()).unwrap();
        assert_eq!((bench.jobs, bench.cells_run), (1, 40));
        assert_eq!(bench.targets[0].name, "fig17");

        // A v8 report written with `--sim-threads 2 --profile`:
        // `sim_threads` at the top level and per batch, and a profile
        // object with a `speculation` section.
        let v8 = r#"{"schema":"grit-run-report/v8","scale":0.04,"intensity":1.5,"seed":1,
            "jobs":1,"sim_threads":2,"total_seconds":1.0,"system":{},"targets":[],
            "batches":[{"cells":1,"jobs":1,"sim_threads":2,"wall_seconds":1.0,
                "workload_cache_hits":0,"workload_cache_misses":1}],
            "cells":[],
            "profile":{"wall":[{"phase":"spec_execute","nanos":5,"count":1}],
                "speculation":{"rounds":10,"speculated":1000,"committed":900,"rewound":3,
                    "serial_burst_steps":512,"horizon_stalls":4,"horizon_stall_cycles":888,
                    "rollback_rate":0.1,"load_imbalance":1.2,"per_gpu_committed":[500,400]},
                "cycle":CYCLE}}"#
            .replace("CYCLE", &CycleProfile::default().to_json().to_string());
        let back = RunReport::from_json(&Json::parse(&v8).unwrap()).unwrap();
        assert_eq!(back.jobs, 1);
        assert_eq!(back.batches[0].cells, 1);
        let profile = back.profile.as_ref().expect("profile parsed");
        assert_eq!(profile.wall[0].phase, "spec_execute");
        assert_eq!(profile.cycle, CycleProfile::default());
        // Re-serializing drops the retired fields.
        let text = back.to_json().to_string();
        assert!(!text.contains("sim_threads") && !text.contains("speculation"));
    }

    #[test]
    fn fabric_report_is_extracted_from_aux_series() {
        let r = MetricsReport::from_metrics(&sample_metrics());
        assert_eq!(
            r.fabric,
            FabricReport {
                nvlink_bytes: 4096,
                switch_bytes: 512,
                inter_node_bytes: 128,
                pcie_bytes: 64,
                nvlink_queue_cycles: 20,
                switch_queue_cycles: 9,
                inter_node_queue_cycles: 3,
                pcie_queue_cycles: 1,
            }
        );
        assert_eq!(r.fabric.total_queue_cycles(), 33);
    }

    #[test]
    fn resilience_report_round_trips_and_is_omitted_when_zero() {
        // An uninjected run: no resilience_counters series, no JSON object.
        let plain = MetricsReport::from_metrics(&sample_metrics());
        assert_eq!(plain.resilience, ResilienceReport::default());
        let text = plain.to_json().to_string();
        assert!(
            !text.contains("\"resilience\""),
            "zero object leaked: {text}"
        );

        // An injected run: the aux series populates the object, it is
        // serialized, and it parses back identically.
        let mut m = sample_metrics();
        m.aux.insert(
            "resilience_counters".into(),
            vec![4.0, 3.0, 2.0, 5.0, 7.0, 6.0, 9.0, 4.0, 1.0, 1.0, 12.0],
        );
        let r = MetricsReport::from_metrics(&m);
        assert_eq!(
            r.resilience,
            ResilienceReport {
                faults_injected: 4,
                recoveries: 3,
                frames_retired: 2,
                pages_force_evicted: 5,
                storm_stalled_faults: 7,
                migrations_blocked: 6,
                migration_retries: 9,
                retry_successes: 4,
                fallback_remote: 1,
                host_staged: 1,
                invariant_checks: 12,
            }
        );
        assert!(r.resilience.all_blocked_resolved());
        let back =
            MetricsReport::from_json(&Json::parse(&r.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn pagesize_report_round_trips_and_is_omitted_when_zero() {
        // A uniform-4 KB run: no pagesize_counters series, no JSON object.
        let plain = MetricsReport::from_metrics(&sample_metrics());
        assert_eq!(plain.pagesize, PagesizeReport::default());
        let text = plain.to_json().to_string();
        assert!(!text.contains("\"pagesize\""), "zero object leaked: {text}");

        // A large-page run: the aux series populates the object, it is
        // serialized, and it parses back identically.
        let mut m = sample_metrics();
        m.aux.insert(
            "pagesize_counters".into(),
            vec![8.0, 3.0, 2.0, 1.0, 40.0, 5.0, 160.0, 6.0, 2.0],
        );
        let r = MetricsReport::from_metrics(&m);
        assert_eq!(
            r.pagesize,
            PagesizeReport {
                coalesces: 8,
                splinters_false_sharing: 3,
                splinters_eviction: 2,
                splinters_retirement: 1,
                counter_trips_base: 40,
                counter_trips_large: 5,
                counter_groups_aliased: 160,
                coalesced_peak: 6,
                coalesced_final: 2,
            }
        );
        assert_eq!(r.pagesize.splinters(), 6);
        let back =
            MetricsReport::from_json(&Json::parse(&r.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn store_counters_round_trip_and_are_omitted_when_absent() {
        // A store-less run: no `store` key, and documents without one
        // parse back to `None`.
        let plain = RunReport::default();
        let text = plain.to_json().to_string();
        assert!(!text.contains("\"store\""));
        assert_eq!(
            RunReport::from_json(&Json::parse(&text).unwrap()).unwrap().store,
            None
        );

        // A stored run round-trips exactly.
        let report = RunReport {
            cells: vec![sample_cell(0)],
            store: Some(StoreCounters {
                hits: 7,
                misses: 3,
                quarantined: 1,
            }),
            ..RunReport::default()
        };
        let text = report.to_json().to_string();
        assert!(text.contains("\"store\""));
        let back = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
        assert!(back.store.unwrap().any());
    }

    #[test]
    fn v7_run_report_schema_tag_still_parses() {
        let report = RunReport {
            cells: vec![sample_cell(0)],
            ..RunReport::default()
        };
        let mut j = report.to_json();
        if let Json::Obj(fields) = &mut j {
            fields[0].1 = Json::Str(RUN_REPORT_SCHEMA_V7.into());
        }
        let back = RunReport::from_json(&j).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn v6_run_report_schema_tag_still_parses() {
        let report = RunReport {
            cells: vec![sample_cell(0)],
            ..RunReport::default()
        };
        let mut j = report.to_json();
        if let Json::Obj(fields) = &mut j {
            fields[0].1 = Json::Str(RUN_REPORT_SCHEMA_V6.into());
        }
        let back = RunReport::from_json(&j).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn unresolved_blocked_migrations_are_detected() {
        let r = ResilienceReport {
            migrations_blocked: 5,
            retry_successes: 2,
            fallback_remote: 1,
            host_staged: 1,
            ..Default::default()
        };
        assert!(!r.all_blocked_resolved());
    }

    fn sample_profile() -> ProfileReport {
        let mut cycle = CycleProfile::default();
        cycle.absorb_aux(&[
            (
                "prof_fault_occupancy_hist".into(),
                vec![3.0, 10.0, 16.0, 8.0, 2.0, 16.0, 1.0],
            ),
            ("prof_mlp_stall_cycles".into(), vec![100.0, 50.0]),
        ]);
        ProfileReport {
            wall: vec![PhaseEntry {
                phase: "fault_handling".into(),
                nanos: 123_456,
                count: 42,
            }],
            cycle,
        }
    }

    #[test]
    fn profile_report_round_trips() {
        let p = sample_profile();
        assert_eq!(p.cycle.fault_occupancy.samples, 3);
        assert_eq!(p.cycle.fault_occupancy.buckets, vec![(8, 2), (16, 1)]);
        assert_eq!(p.cycle.mlp_stall_cycles, 150);
        let report = RunReport {
            cells: vec![sample_cell(0)],
            profile: Some(p),
            ..RunReport::default()
        };
        let text = report.to_json().to_string();
        assert!(text.contains("\"profile\""));
        let back = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);

        // Unprofiled runs omit the object entirely.
        let plain = RunReport::default();
        let text = plain.to_json().to_string();
        assert!(!text.contains("\"profile\""));
        let back = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.profile, None);
    }

    #[test]
    fn hist_report_merge_combines_samples_and_buckets() {
        let mut a = HistReport::from_flat(&[2.0, 10.0, 16.0, 8.0, 2.0]);
        let b = HistReport::from_flat(&[2.0, 40.0, 64.0, 8.0, 1.0, 64.0, 1.0]);
        a.merge(&b);
        assert_eq!(a.samples, 4);
        assert_eq!(a.max, 64);
        assert!((a.mean - 25.0).abs() < 1e-9);
        assert_eq!(a.buckets, vec![(8, 3), (64, 1)]);
    }

    #[test]
    fn v4_run_report_schema_tag_still_parses() {
        let report = RunReport {
            cells: vec![sample_cell(0)],
            ..RunReport::default()
        };
        let mut j = report.to_json();
        if let Json::Obj(fields) = &mut j {
            fields[0].1 = Json::Str(RUN_REPORT_SCHEMA_V4.into());
        }
        let back = RunReport::from_json(&j).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn v3_run_report_schema_tag_still_parses() {
        let report = RunReport {
            cells: vec![sample_cell(0)],
            ..RunReport::default()
        };
        let mut j = report.to_json();
        if let Json::Obj(fields) = &mut j {
            fields[0].1 = Json::Str(RUN_REPORT_SCHEMA_V3.into());
        }
        let back = RunReport::from_json(&j).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn v2_run_report_without_fabric_still_parses() {
        // Replay a v2 document: v2 schema tag, and no `fabric` object on
        // any cell metrics. Both differences must be tolerated.
        let mut report = RunReport {
            cells: vec![sample_cell(0)],
            ..RunReport::default()
        };
        let mut j = report.to_json();
        if let Json::Obj(fields) = &mut j {
            fields[0].1 = Json::Str(RUN_REPORT_SCHEMA_V2.into());
        }
        let mut text = j.to_string();
        let needle = "\"fabric\":";
        let start = text.find(needle).unwrap();
        let end = text[start..].find(",\"aux\"").unwrap() + start;
        text.replace_range(start..end + 1, "");
        assert!(!text.contains(needle));
        let back = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        // The absent fabric object parses as zeros; everything else matches.
        report.cells[0].metrics.fabric = FabricReport::default();
        assert_eq!(back, report);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut j = RunReport::default().to_json();
        if let Json::Obj(fields) = &mut j {
            fields[0].1 = Json::Str("grit-run-report/v999".into());
        }
        assert!(RunReport::from_json(&j).unwrap_err().contains("schema"));
    }

    #[test]
    fn fault_counters_ignore_derived_total_on_parse() {
        let f = FaultCounters {
            local_faults: 1,
            protection_faults: 2,
            ..Default::default()
        };
        let j = faults_to_json(&f);
        assert_eq!(j.get("total_faults").unwrap().as_u64(), Some(3));
        assert_eq!(faults_from_json(&j).unwrap(), f);
    }
}
