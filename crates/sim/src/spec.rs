//! The serializable description of one simulation cell.
//!
//! [`RunSpec`] is the single source of truth for "which cell is this":
//! the `repro` CLI's batch-override flags, the on-disk `ResultStore`
//! cache key, `run_report.json` cell rows, and the `grit-serve/v1` wire
//! protocol all derive from one `RunSpec` instead of four parallel
//! ad-hoc encodings.
//!
//! The struct is deliberately plain data: applications and policies are
//! named by their stable string labels (`App::abbr()`,
//! `PolicyKind::label()`), hardware overrides are optional strings in
//! the same grammar the CLI accepts (`--topology`, `--inject`), and the
//! experiment knobs carry the same defaults as `ExpConfig::default()`.
//! Higher layers resolve the strings into typed values; this crate only
//! validates and applies the pieces it owns ([`SimConfig`]).
//!
//! `RunSpec` is `#[non_exhaustive]` with a fluent builder so future
//! fields never break downstream callers; JSON encoding lives in
//! `grit-serve` (this crate has no JSON dependency).

use crate::config::{ConfigError, SimConfig, TopologyConfig};
use grit_inject::InjectConfig;

/// Default experiment scale (fraction of the paper's working-set size);
/// must agree with `ExpConfig::default()` in the top-level crate.
pub const DEFAULT_SCALE: f64 = 0.10;
/// Default compute-intensity multiplier; must agree with
/// `ExpConfig::default()`.
pub const DEFAULT_INTENSITY: f64 = 2.0;
/// Default workload seed; must agree with `ExpConfig::default()`.
pub const DEFAULT_SEED: u64 = 0xBEEF;

/// A complete, serializable description of one simulation cell: which
/// workload and placement policy to run, at what experiment scale, and
/// every batch-level override that changes the simulated machine or how
/// the cell executes.
///
/// Optional fields mean "use the configuration default"; a
/// default-constructed spec describes the paper's baseline machine
/// running `Gemm` under the GRIT policy.
///
/// ```
/// use grit_sim::{RunSpec, SimConfig};
///
/// let spec = RunSpec::new("bfs", "grit").gpus(8).topology("ring");
/// let mut cfg = SimConfig::default();
/// spec.apply_to(&mut cfg).unwrap();
/// assert_eq!(cfg.num_gpus, 8);
/// assert_eq!(cfg.topology.name(), "ring");
/// ```
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub struct RunSpec {
    /// Workload name: the stable `App::abbr()` label, case-insensitive
    /// (`"Gemm"`, `"bfs"`, ...).
    pub app: String,
    /// Placement-policy label as printed in tables (`"grit"`,
    /// `"on-touch"`, `"grit(t=4,cache=true,nap=false)"`, ...).
    pub policy: String,
    /// Working-set scale relative to the paper's footprint.
    pub scale: f64,
    /// Compute cycles per memory access (intensity multiplier).
    pub intensity: f64,
    /// Deterministic workload seed.
    pub seed: u64,
    /// GPU count override (`None` = config default, 4).
    pub gpus: Option<usize>,
    /// Page-size override in bytes (`None` = config default, 4 KiB).
    pub page_size: Option<u64>,
    /// Large-page management mode by stable name (`"uniform4k"`,
    /// `"uniform2m"`, `"mixed"`); `None` = uniform 4 KiB base pages.
    pub page_size_mode: Option<String>,
    /// Topology spec in `--topology` grammar (`"ring"`,
    /// `"nvswitch:16"`, ...); `None` = all-to-all.
    pub topology: Option<String>,
    /// Fault-injection plan in `--inject` grammar; `None` = healthy run.
    pub inject: Option<String>,
    /// Opt release builds into per-event invariant checking.
    pub check_invariants: bool,
    /// Per-cell wall-clock budget in seconds (`None` = no timeout).
    pub timeout_secs: Option<f64>,
    /// Record structured trace events for this cell.
    pub trace: bool,
    /// Trace category filter in `--trace-filter` grammar (`None` = all
    /// categories). Only meaningful when `trace` is set.
    pub trace_filter: Option<String>,
    /// Keep every Nth trace event per category (1 = keep all).
    pub trace_sample: u64,
    /// Record engine self-profiling phases for this cell.
    pub profile: bool,
}

impl Default for RunSpec {
    /// The paper's baseline cell: `Gemm` under GRIT at the default
    /// experiment scale, no hardware overrides, no tracing.
    fn default() -> Self {
        RunSpec {
            app: "Gemm".to_string(),
            policy: "grit".to_string(),
            scale: DEFAULT_SCALE,
            intensity: DEFAULT_INTENSITY,
            seed: DEFAULT_SEED,
            gpus: None,
            page_size: None,
            page_size_mode: None,
            topology: None,
            inject: None,
            check_invariants: false,
            timeout_secs: None,
            trace: false,
            trace_filter: None,
            trace_sample: 1,
            profile: false,
        }
    }
}

impl RunSpec {
    /// Builds a spec for `app` under `policy` with default experiment
    /// knobs and no overrides.
    pub fn new(app: impl Into<String>, policy: impl Into<String>) -> Self {
        RunSpec {
            app: app.into(),
            policy: policy.into(),
            ..RunSpec::default()
        }
    }

    /// Sets the workload label.
    pub fn app(mut self, app: impl Into<String>) -> Self {
        self.app = app.into();
        self
    }

    /// Sets the policy label.
    pub fn policy(mut self, policy: impl Into<String>) -> Self {
        self.policy = policy.into();
        self
    }

    /// Sets the working-set scale.
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the compute-intensity multiplier.
    pub fn intensity(mut self, intensity: f64) -> Self {
        self.intensity = intensity;
        self
    }

    /// Sets the workload seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the GPU count.
    pub fn gpus(mut self, gpus: usize) -> Self {
        self.gpus = Some(gpus);
        self
    }

    /// Overrides the page size in bytes.
    pub fn page_size(mut self, bytes: u64) -> Self {
        self.page_size = Some(bytes);
        self
    }

    /// Overrides the large-page management mode (CLI `--page-size-mode`
    /// grammar: `uniform4k`, `uniform2m`, or `mixed`).
    pub fn page_size_mode(mut self, mode: impl Into<String>) -> Self {
        self.page_size_mode = Some(mode.into());
        self
    }

    /// Overrides the interconnect topology (CLI `--topology` grammar).
    pub fn topology(mut self, spec: impl Into<String>) -> Self {
        self.topology = Some(spec.into());
        self
    }

    /// Schedules fault injection (CLI `--inject` grammar).
    pub fn inject(mut self, spec: impl Into<String>) -> Self {
        self.inject = Some(spec.into());
        self
    }

    /// Opts release builds into invariant checking.
    pub fn check_invariants(mut self, on: bool) -> Self {
        self.check_invariants = on;
        self
    }

    /// Sets the per-cell wall-clock budget in seconds.
    pub fn timeout_secs(mut self, secs: f64) -> Self {
        self.timeout_secs = Some(secs);
        self
    }

    /// Enables structured trace recording for this cell.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Sets the trace category filter (CLI `--trace-filter` grammar).
    pub fn trace_filter(mut self, filter: impl Into<String>) -> Self {
        self.trace_filter = Some(filter.into());
        self
    }

    /// Keeps every Nth trace event per category (clamped to ≥ 1).
    pub fn trace_sample(mut self, every: u64) -> Self {
        self.trace_sample = every.max(1);
        self
    }

    /// Enables engine self-profiling for this cell.
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Applies the machine-shaping overrides (`gpus`, `page_size`,
    /// `page_size_mode`, `topology`, `inject`, `check_invariants`) to
    /// `cfg`, parsing the
    /// string grammars and validating the result. Experiment knobs
    /// (`scale`/`intensity`/`seed`) and execution knobs
    /// (`timeout_secs`/trace/profile) are untouched: they belong to other
    /// layers.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field when a
    /// topology or inject spec fails to parse or the resulting
    /// configuration fails [`SimConfig::validate`].
    pub fn apply_to(&self, cfg: &mut SimConfig) -> Result<(), ConfigError> {
        if let Some(gpus) = self.gpus {
            cfg.num_gpus = gpus;
        }
        if let Some(bytes) = self.page_size {
            cfg.page_size = bytes;
        }
        if let Some(mode) = &self.page_size_mode {
            cfg.page_size_mode = crate::config::PageSizeMode::parse(mode)
                .map_err(|e| ConfigError::new("page_size_mode", e))?;
        }
        if let Some(spec) = &self.topology {
            cfg.topology =
                TopologyConfig::parse(spec).map_err(|e| ConfigError::new("topology", e))?;
        }
        if let Some(spec) = &self.inject {
            cfg.inject =
                InjectConfig::parse(spec).map_err(|e| ConfigError::new("inject", e.to_string()))?;
        }
        if self.check_invariants {
            cfg.check_invariants = true;
        }
        cfg.validate()
    }

    /// True when every field still holds its default: applying the spec
    /// to a config is then a no-op beyond validation.
    pub fn is_default(&self) -> bool {
        *self == RunSpec::default()
    }

    /// Renders the spec as a stable single-line `key=value;` string in
    /// fixed field order. Two specs describe the same cell if and only
    /// if their canonical forms are equal, so this string is the
    /// backbone of the `ResultStore` cache key and the `spec` column of
    /// `run_report.json` cell rows. Unset optional fields render as
    /// `-`; floats use Rust's shortest round-trip formatting.
    pub fn canonical(&self) -> String {
        fn opt<T: std::fmt::Display>(v: &Option<T>) -> String {
            match v {
                Some(x) => x.to_string(),
                None => "-".to_string(),
            }
        }
        format!(
            "app={};policy={};scale={};intensity={};seed={};gpus={};page_size={};\
             page_size_mode={};topology={};inject={};check_invariants={};\
             timeout_secs={};trace={};trace_filter={};trace_sample={};profile={}",
            self.app,
            self.policy,
            self.scale,
            self.intensity,
            self.seed,
            opt(&self.gpus),
            opt(&self.page_size),
            opt(&self.page_size_mode),
            opt(&self.topology),
            opt(&self.inject),
            self.check_invariants,
            opt(&self.timeout_secs),
            self.trace,
            opt(&self.trace_filter),
            self.trace_sample,
            self.profile,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_a_config_no_op() {
        let mut cfg = SimConfig::default();
        RunSpec::default().apply_to(&mut cfg).unwrap();
        assert_eq!(cfg, SimConfig::default());
        assert!(RunSpec::default().is_default());
    }

    #[test]
    fn apply_to_sets_every_machine_field() {
        let spec = RunSpec::new("bfs", "on-touch")
            .gpus(8)
            .page_size(2 * 1024 * 1024)
            .topology("nvswitch:16")
            .inject("degrade@1000:wire=*:frac=0.5:for=500")
            .check_invariants(true);
        let mut cfg = SimConfig::default();
        spec.apply_to(&mut cfg).unwrap();
        assert_eq!(cfg.num_gpus, 8);
        assert_eq!(cfg.page_size, 2 * 1024 * 1024);
        assert_eq!(cfg.topology.name(), "nvswitch");
        assert_eq!(cfg.topology.switch_radix, 16);
        assert!(!cfg.inject.is_empty());
        assert!(cfg.check_invariants);

        // Large-page mode threads through by stable name (the 2 MB
        // page-size override above must drop back to 4 KB base pages
        // for the mode to validate).
        let spec = RunSpec::new("bfs", "grit").page_size_mode("mixed");
        let mut cfg = SimConfig::default();
        spec.apply_to(&mut cfg).unwrap();
        assert_eq!(cfg.page_size_mode.name(), "mixed");
    }

    #[test]
    fn apply_to_rejects_bad_grammar_and_bad_configs() {
        let mut cfg = SimConfig::default();
        let err = RunSpec::default().topology("moebius").apply_to(&mut cfg).unwrap_err();
        assert_eq!(err.field, "topology");

        let err = RunSpec::default().inject("explode@now").apply_to(&mut cfg).unwrap_err();
        assert_eq!(err.field, "inject");

        let err = RunSpec::default().page_size_mode("huge").apply_to(&mut cfg).unwrap_err();
        assert_eq!(err.field, "page_size_mode");

        // Out-of-range GPU counts are caught by validate(), not silently
        // applied.
        let err = RunSpec::default().gpus(64).apply_to(&mut cfg).unwrap_err();
        assert_eq!(err.field, "num_gpus");
    }

    #[test]
    fn canonical_is_stable_and_distinguishes_specs() {
        let a = RunSpec::new("Gemm", "grit");
        assert_eq!(
            a.canonical(),
            "app=Gemm;policy=grit;scale=0.1;intensity=2;seed=48879;gpus=-;page_size=-;\
             page_size_mode=-;topology=-;inject=-;check_invariants=false;\
             timeout_secs=-;trace=false;trace_filter=-;trace_sample=1;profile=false"
        );
        let b = a.clone().gpus(8);
        assert_ne!(a.canonical(), b.canonical());
        // Page-size mode is part of the cell identity (cache keys must
        // not collide across modes).
        assert_ne!(a.canonical(), a.clone().page_size_mode("mixed").canonical());
        assert_eq!(a.canonical(), a.clone().canonical());
        // Floats render round-trip exact, so close-but-different scales
        // stay distinct.
        assert_ne!(
            a.clone().scale(0.1).canonical(),
            a.clone().scale(0.1 + 1e-12).canonical()
        );
    }

    #[test]
    fn builder_covers_every_field() {
        let spec = RunSpec::new("bfs", "ideal")
            .scale(0.5)
            .intensity(1.0)
            .seed(7)
            .gpus(2)
            .page_size(4096)
            .page_size_mode("uniform2m")
            .topology("ring")
            .inject("retire@10:gpu=0:frames=1")
            .check_invariants(true)
            .timeout_secs(1.5)
            .trace(true)
            .trace_filter("fault,migration")
            .trace_sample(8)
            .profile(true);
        assert_eq!(spec.app, "bfs");
        assert_eq!(spec.policy, "ideal");
        assert_eq!(spec.page_size_mode.as_deref(), Some("uniform2m"));
        assert_eq!(spec.timeout_secs, Some(1.5));
        assert!(spec.trace && spec.profile && spec.check_invariants);
        assert_eq!(spec.trace_sample, 8);
        // trace_sample clamps to >= 1 so "keep every 0th" can't divide
        // by zero downstream.
        assert_eq!(RunSpec::default().trace_sample(0).trace_sample, 1);
    }
}
