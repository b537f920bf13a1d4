//! # grit-mem
//!
//! Memory-hierarchy building blocks for the GRIT reproduction: a generic
//! set-associative LRU cache (reused for TLBs, the page-walk cache, GPU L2
//! data caches and GRIT's PA-Cache), per-GPU TLB hierarchies, the GMMU
//! page-table-walker pool of Table I, per-GPU DRAM with LRU eviction for
//! oversubscription modelling, and per-GPU local page tables.
//!
//! # Example
//!
//! ```
//! use grit_mem::{SetAssocCache, Tlb};
//! use grit_sim::{PageId, TlbGeometry};
//!
//! let mut tlb = Tlb::new(TlbGeometry { entries: 32, ways: 32, lookup_latency: 1 });
//! assert!(!tlb.access(PageId(5)));
//! tlb.fill(PageId(5));
//! assert!(tlb.access(PageId(5)));
//!
//! let mut c: SetAssocCache<u64, &str> = SetAssocCache::new(4, 2);
//! c.insert(1, "a");
//! assert_eq!(c.get(&1), Some(&mut "a"));
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod dram;
pub mod page_table;
pub mod tlb;
pub mod walker;

pub use cache::{CacheKey, CacheStats, SetAssocCache};
pub use dram::GpuMemory;
pub use page_table::{LocalPageTable, Mapping};
pub use tlb::{Tlb, TlbHierarchy, TranslationLevel};
pub use walker::WalkerPool;
