//! Experiment drivers: one module per figure of the paper's evaluation.
//!
//! Every driver returns a [`grit_metrics::Table`] (or a small set of them)
//! whose rows mirror the corresponding figure, normalized the same way the
//! paper normalizes. The `repro` binary prints them; `EXPERIMENTS.md`
//! records paper-vs-measured values; the Criterion benches in `grit-bench`
//! re-run the same drivers.

pub mod fig01_schemes;
pub mod fig03_breakdown;
pub mod fig04_sharing;
pub mod fig05_page_timeline;
pub mod fig06_attr_grids;
pub mod fig09_rw;
pub mod fig10_rw_timeline;
pub mod fig17_grit;
pub mod fig18_faults;
pub mod fig19_scheme_mix;
pub mod fig20_ablation;
pub mod fig21_threshold;
pub mod fig22_gpu_scaling;
pub mod fig25_large_pages;
pub mod fig26_griffin;
pub mod fig27_gps;
pub mod fig28_transfw;
pub mod fig29_first_touch;
pub mod fig30_prefetch;
pub mod fig31_dnn;

pub mod ext_adaptation;
pub mod ext_oracle;
pub mod ext_pa_cache;
pub mod ext_pagesize;
pub mod ext_resilience;
pub mod ext_sweeps;
pub mod ext_topology;
pub mod ext_workloads;

pub mod batch;
pub mod report_sink;
pub mod result_store;
pub mod workload_cache;

pub use batch::{
    effective_jobs, fail_fast_triggered, override_spec, run_batch, run_batch_with,
    run_batch_with_stats, run_grid, set_fail_fast, set_jobs, set_override_spec, set_progress,
    set_resume_dir, set_store_max_bytes, BatchOptions, CellResultExt, CellSpec, PolicySpec,
};

use grit_baselines::{FirstTouchPolicy, GpsPolicy, GriffinDpcPolicy, IdealPolicy};
use grit_core::{GritConfig, GritPolicy};
use grit_sim::{Scheme, SimConfig};
use grit_uvm::{PlacementPolicy, StaticPolicy};
use grit_workloads::App;

use crate::runner::{ObserverConfig, RunOutput};

/// Which policy a run uses (a serializable recipe, since policies carry
/// per-run state).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum PolicyKind {
    /// One uniform scheme for every page.
    Static(Scheme),
    /// The unrealizable Ideal of Fig. 1.
    Ideal,
    /// GRIT with the given configuration (latencies are re-derived from
    /// the run's `SimConfig`).
    Grit {
        /// Fault threshold (default 4).
        threshold: u8,
        /// PA-Cache enabled.
        pa_cache: bool,
        /// Neighboring-Aware Prediction enabled.
        nap: bool,
    },
    /// First-touch pinning (§VI-D).
    FirstTouch,
    /// Griffin's dynamic page classification (§VI-C1).
    GriffinDpc,
    /// GPS publish-subscribe (§VI-C2).
    Gps,
    /// GRIT with an explicit PA-Cache capacity (geometry ablation).
    GritWithCache {
        /// PA-Cache entries (4-way sets).
        entries: usize,
    },
}

impl PolicyKind {
    /// The full GRIT design.
    pub const GRIT: PolicyKind = PolicyKind::Grit {
        threshold: 4,
        pa_cache: true,
        nap: true,
    };

    /// Builds the policy object for a run.
    pub fn build(self, cfg: &SimConfig, footprint_pages: u64) -> Box<dyn PlacementPolicy> {
        match self {
            PolicyKind::Static(s) => Box::new(StaticPolicy::new(s)),
            PolicyKind::Ideal => Box::new(IdealPolicy::new()),
            PolicyKind::Grit {
                threshold,
                pa_cache,
                nap,
            } => {
                let gc = GritConfig {
                    fault_threshold: threshold,
                    pa_cache,
                    nap,
                    ..GritConfig::full(cfg)
                };
                Box::new(GritPolicy::new(gc, footprint_pages))
            }
            PolicyKind::FirstTouch => Box::new(FirstTouchPolicy::new()),
            PolicyKind::GriffinDpc => Box::new(GriffinDpcPolicy::new(cfg.num_gpus)),
            PolicyKind::Gps => Box::new(GpsPolicy::new()),
            PolicyKind::GritWithCache { entries } => {
                let gc = GritConfig {
                    pa_cache_entries: entries,
                    ..GritConfig::full(cfg)
                };
                Box::new(GritPolicy::new(gc, footprint_pages))
            }
        }
    }

    /// Report label.
    pub fn label(self) -> String {
        match self {
            PolicyKind::Static(s) => s.to_string(),
            PolicyKind::Ideal => "ideal".into(),
            PolicyKind::Grit {
                threshold: 4,
                pa_cache: true,
                nap: true,
            } => "grit".into(),
            PolicyKind::Grit {
                threshold,
                pa_cache,
                nap,
            } => {
                format!("grit(t={threshold},cache={pa_cache},nap={nap})")
            }
            PolicyKind::FirstTouch => "first-touch".into(),
            PolicyKind::GriffinDpc => "griffin-dpc".into(),
            PolicyKind::Gps => "gps".into(),
            PolicyKind::GritWithCache { entries } => format!("grit(pa-cache={entries})"),
        }
    }

    /// Resolves a report label back to the policy recipe, the inverse of
    /// [`PolicyKind::label`]. This is how serialized [`grit_sim::RunSpec`]
    /// cells (CLI submissions, `grit-serve/v1` requests) name policies.
    /// `None` for unknown labels.
    pub fn parse(label: &str) -> Option<PolicyKind> {
        let label = label.trim();
        if let Some(s) = Scheme::ALL.into_iter().find(|s| s.to_string() == label) {
            return Some(PolicyKind::Static(s));
        }
        match label {
            "ideal" => return Some(PolicyKind::Ideal),
            "grit" => return Some(PolicyKind::GRIT),
            "first-touch" => return Some(PolicyKind::FirstTouch),
            "griffin-dpc" => return Some(PolicyKind::GriffinDpc),
            "gps" => return Some(PolicyKind::Gps),
            _ => {}
        }
        let body = label.strip_prefix("grit(")?.strip_suffix(')')?;
        if let Some(entries) = body.strip_prefix("pa-cache=") {
            let entries = entries.parse().ok()?;
            return Some(PolicyKind::GritWithCache { entries });
        }
        let (mut threshold, mut pa_cache, mut nap) = (None, None, None);
        for part in body.split(',') {
            let (k, v) = part.split_once('=')?;
            match k {
                "t" => threshold = Some(v.parse().ok()?),
                "cache" => pa_cache = Some(v.parse().ok()?),
                "nap" => nap = Some(v.parse().ok()?),
                _ => return None,
            }
        }
        Some(PolicyKind::Grit {
            threshold: threshold?,
            pa_cache: pa_cache?,
            nap: nap?,
        })
    }
}

/// Shared experiment knobs: workload scale and trace intensity trade
/// fidelity against wall-clock time. The defaults reproduce every trend at
/// a fraction of the full-footprint runtime; `--full` in the `repro`
/// binary raises them.
#[derive(Clone, Copy, Debug)]
pub struct ExpConfig {
    /// Footprint scale relative to Table II.
    pub scale: f64,
    /// Trace-length multiplier.
    pub intensity: f64,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 0.10,
            intensity: 2.0,
            seed: 0xBEEF,
        }
    }
}

impl ExpConfig {
    /// A fast configuration for CI/integration tests.
    pub fn quick() -> Self {
        ExpConfig {
            scale: 0.04,
            intensity: 1.5,
            ..Default::default()
        }
    }

    /// Full-footprint configuration (Table II sizes). Intensity stays at
    /// the calibrated default: trace length already scales with footprint.
    pub fn full() -> Self {
        ExpConfig {
            scale: 1.0,
            intensity: 2.0,
            ..Default::default()
        }
    }
}

/// Runs one `(app, policy)` cell with the baseline system configuration.
pub fn run_cell(app: App, policy: PolicyKind, exp: &ExpConfig) -> RunOutput {
    run_cell_with(app, policy, exp, SimConfig::default(), None)
}

/// Runs one cell with an explicit system configuration and optional
/// observer instrumentation. The workload comes from the process-wide
/// [`workload_cache`], so repeated cells on one trace build it once.
pub fn run_cell_with(
    app: App,
    policy: PolicyKind,
    exp: &ExpConfig,
    cfg: SimConfig,
    observer: Option<ObserverConfig>,
) -> RunOutput {
    CellSpec {
        app,
        policy: PolicySpec::Kind(policy),
        exp: *exp,
        cfg,
        observer,
        prefetcher: None,
        trace: None,
    }
    .run()
}

/// The eight Table II applications, the row set of most figures.
pub fn table2_apps() -> [App; 8] {
    App::TABLE2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_labels() {
        assert_eq!(PolicyKind::GRIT.label(), "grit");
        assert_eq!(PolicyKind::Static(Scheme::OnTouch).label(), "on-touch");
        assert_eq!(
            PolicyKind::Grit {
                threshold: 8,
                pa_cache: true,
                nap: true
            }
            .label(),
            "grit(t=8,cache=true,nap=true)"
        );
    }

    #[test]
    fn policy_parse_inverts_label() {
        let kinds = [
            PolicyKind::Static(Scheme::OnTouch),
            PolicyKind::Static(Scheme::AccessCounter),
            PolicyKind::Static(Scheme::Duplication),
            PolicyKind::Ideal,
            PolicyKind::GRIT,
            PolicyKind::Grit {
                threshold: 8,
                pa_cache: false,
                nap: true,
            },
            PolicyKind::FirstTouch,
            PolicyKind::GriffinDpc,
            PolicyKind::Gps,
            PolicyKind::GritWithCache { entries: 512 },
        ];
        for k in kinds {
            assert_eq!(PolicyKind::parse(&k.label()), Some(k), "{}", k.label());
        }
        assert_eq!(PolicyKind::parse("grit( t=4 )"), None);
        assert_eq!(PolicyKind::parse("belady"), None);
    }

    /// `RunSpec`'s documented experiment defaults are `ExpConfig`'s; the
    /// constants live in `grit-sim`, which cannot see `ExpConfig`, so the
    /// agreement is pinned here.
    #[test]
    fn run_spec_defaults_match_exp_config() {
        let exp = ExpConfig::default();
        assert_eq!(exp.scale, grit_sim::spec::DEFAULT_SCALE);
        assert_eq!(exp.intensity, grit_sim::spec::DEFAULT_INTENSITY);
        assert_eq!(exp.seed, grit_sim::spec::DEFAULT_SEED);
    }

    #[test]
    fn run_cell_smoke() {
        let out = run_cell(
            App::Gemm,
            PolicyKind::Static(Scheme::OnTouch),
            &ExpConfig::quick(),
        );
        assert!(out.metrics.total_cycles > 0);
        assert!(out.metrics.accesses > 0);
        assert!(out.metrics.faults.local_faults > 0);
    }
}
