//! # grit-sim
//!
//! Foundation types for the GRIT multi-GPU reproduction: simulated time,
//! identifiers, memory-access records, access-stream traits, deterministic
//! randomness, and the full system configuration mirroring Table I of the
//! paper (*GRIT: Enhancing Multi-GPU Performance with Fine-Grained Dynamic
//! Page Placement*, HPCA 2024).
//!
//! The simulator built on top of this crate is **trace driven** and
//! **discrete event**: workload generators (see `grit-workloads`) produce
//! per-GPU [`Access`] streams, and the system runner advances whichever GPU
//! has the smallest next-ready cycle, so cross-GPU interactions (migrations,
//! invalidations, write-collapses) are globally ordered.
//!
//! # Example
//!
//! ```
//! use grit_sim::{Access, AccessKind, GpuId, PageId, SimConfig};
//!
//! let cfg = SimConfig::default();
//! assert_eq!(cfg.num_gpus, 4);
//! assert_eq!(cfg.page_size, 4096);
//!
//! let a = Access::read(PageId(42), 3);
//! assert_eq!(a.vpn, PageId(42));
//! assert!(a.kind == AccessKind::Read);
//! let g = GpuId::new(2);
//! assert_eq!(g.index(), 2);
//! ```

#![warn(missing_docs)]

pub mod access;
pub mod config;
pub mod error;
pub mod hash;
pub mod ids;
pub mod mlp;
pub mod rng;
pub mod scheme;
pub mod spec;
pub mod stream;

pub use access::{Access, AccessKind};
pub use config::{
    lines_per_page_checked, CacheGeometry, ConfigError, LatencyConfig, LinkConfig, PageSizeMode,
    SimConfig, TlbGeometry, TopologyConfig, TopologyKind, WalkConfig,
    ACCESS_COUNTER_THRESHOLD_DEFAULT, CACHE_LINE_BYTES, PAGE_SIZE_2M, PAGE_SIZE_4K,
};
pub use error::{CancelState, CancelToken, CellError, GritError};
pub use grit_inject::{
    Backoff, FaultPlan, FaultSpec, FrameCount, InjectConfig, InjectError, InjectedKind,
    ResilienceCounters, Transition, WireSel,
};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{GpuId, GpuSet, MemLoc, PageId};
pub use mlp::MlpWindow;
pub use rng::SimRng;
pub use scheme::{GroupSize, Scheme};
pub use spec::RunSpec;
pub use stream::{AccessStream, SliceStream};

/// Simulated time in cycles at the 1 GHz compute-unit clock of Table I.
///
/// A plain alias (rather than a newtype) because cycle arithmetic saturates
/// the hot loops of the simulator; identifiers that must never be confused
/// with one another ([`PageId`], [`GpuId`]) are newtypes instead.
pub type Cycle = u64;
