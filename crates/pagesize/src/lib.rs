//! # grit-pagesize
//!
//! Mosaic-style multi-page-size page state for the GRIT reproduction:
//! a two-level model in which 4 KB base pages live inside 2 MB
//! large-page *frames*. A frame whose base pages are all resident on one
//! GPU, unreplicated and (in mixed mode) all touched can be
//! transparently **coalesced** into a single large mapping — one TLB
//! entry covers the whole frame and the access counters track the frame
//! as one group. Any event that breaks the frame's privacy or residency
//! — a remote writer taking exclusive ownership, a duplication, a base
//! page migrating away, a capacity eviction, an ECC retirement —
//! **splinters** the frame back to base pages.
//!
//! The crate deliberately owns no driver state: the UVM driver (in
//! `grit-uvm`) remains the single authority on residency and replication
//! and consults [`LargePageTable`] on its fault, migration and eviction
//! paths. Eligibility is decided by *re-scanning* the affected frame
//! against the authoritative page table (via a caller-supplied lookup)
//! rather than by mirroring every residency delta — slower per check,
//! but impossible to drift out of sync.

#![warn(missing_docs)]

use grit_sim::{FxHashMap, GpuId, PageId, PageSizeMode, PAGE_SIZE_2M};

/// Why a large page splintered back to base pages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SplinterCause {
    /// Another GPU began sharing the frame: a remote writer collapsed a
    /// page to exclusive ownership, a page was duplicated to a peer, or
    /// a base page migrated away from the frame's owner.
    FalseSharing,
    /// Capacity pressure evicted part of the frame (or staged it to the
    /// host), leaving the range partially resident.
    Eviction,
    /// ECC frame retirement force-evicted part of the range.
    Retirement,
}

impl SplinterCause {
    /// Stable label used in trace events and reports.
    pub fn name(self) -> &'static str {
        match self {
            SplinterCause::FalseSharing => "false-sharing",
            SplinterCause::Eviction => "eviction",
            SplinterCause::Retirement => "retirement",
        }
    }

    /// Parses a stable label back into a cause.
    pub fn parse(s: &str) -> Option<Self> {
        [
            SplinterCause::FalseSharing,
            SplinterCause::Eviction,
            SplinterCause::Retirement,
        ]
        .into_iter()
        .find(|c| c.name() == s)
    }
}

/// The authoritative state of one base page, as seen by the central page
/// table, flattened to exactly what coalescing eligibility needs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BasePageView {
    /// The GPU owning the page, `None` when the page is host-resident
    /// (or was never populated).
    pub owner: Option<GpuId>,
    /// Whether any replica of the page exists on another GPU.
    pub replicated: bool,
    /// Whether the page has ever been touched by compute.
    pub touched: bool,
}

/// Cumulative multi-page-size activity counters, reported through the
/// `pagesize_counters` aux series and the run report's `pagesize`
/// object.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PageSizeCounters {
    /// Frames coalesced into a large mapping.
    pub coalesces: u64,
    /// Frames splintered because a peer GPU started sharing the range.
    pub splinters_false_sharing: u64,
    /// Frames splintered by partial capacity eviction / host staging.
    pub splinters_eviction: u64,
    /// Frames splintered by ECC frame retirement.
    pub splinters_retirement: u64,
    /// Access-counter trips on ordinary 64 KB groups.
    pub counter_trips_base: u64,
    /// Access-counter trips on coalesced frames (one counter group per
    /// 2 MB frame).
    pub counter_trips_large: u64,
    /// Total 64 KB groups aliased into tripped frame-granularity groups
    /// (the migration-granularity cost of coalescing: one trip moves the
    /// whole frame).
    pub counter_groups_aliased: u64,
    /// Highest number of simultaneously coalesced frames observed.
    pub coalesced_peak: u64,
}

impl PageSizeCounters {
    /// Flattens the counters to the fixed-order `pagesize_counters` aux
    /// series: `[coalesces, splinters_false_sharing, splinters_eviction,
    /// splinters_retirement, counter_trips_base, counter_trips_large,
    /// counter_groups_aliased, coalesced_peak, coalesced_now]`. The
    /// report parser in `grit-trace` depends on this order.
    pub fn to_series(&self, coalesced_now: u64) -> Vec<f64> {
        vec![
            self.coalesces as f64,
            self.splinters_false_sharing as f64,
            self.splinters_eviction as f64,
            self.splinters_retirement as f64,
            self.counter_trips_base as f64,
            self.counter_trips_large as f64,
            self.counter_groups_aliased as f64,
            self.coalesced_peak as f64,
            coalesced_now as f64,
        ]
    }

    /// Total splinters across all causes.
    pub fn splinters(&self) -> u64 {
        self.splinters_false_sharing + self.splinters_eviction + self.splinters_retirement
    }
}

/// Tracks which 2 MB frames are currently coalesced, who owns each, and
/// the cumulative coalesce/splinter/aliasing counters.
///
/// Frames are identified by their index (`vpn / pages_per_frame`); a
/// coalesced frame maps every base page `frame * pages_per_frame ..
/// (frame + 1) * pages_per_frame` through one large translation owned by
/// a single GPU.
///
/// ```
/// use grit_pagesize::{BasePageView, LargePageTable, SplinterCause};
/// use grit_sim::{GpuId, PageId, PageSizeMode};
///
/// let mut lpt = LargePageTable::new(PageSizeMode::Uniform2m, 4);
/// let g = GpuId::new(1);
/// let view = |_vpn: PageId| Some(BasePageView { owner: Some(g), replicated: false, touched: true });
/// let (base, owner) = lpt.coalesce_candidate(PageId(5), 64, view).unwrap();
/// assert_eq!((base, owner), (PageId(4), g));
/// lpt.coalesce(base, owner);
/// assert_eq!(lpt.coalesced_frame(PageId(7)), Some(PageId(4)));
/// let (split_base, split_owner) = lpt.splinter(PageId(6), SplinterCause::Eviction).unwrap();
/// assert_eq!((split_base, split_owner), (PageId(4), g));
/// assert_eq!(lpt.coalesced_frame(PageId(5)), None);
/// ```
#[derive(Clone, Debug)]
pub struct LargePageTable {
    mode: PageSizeMode,
    pages_per_frame: u64,
    /// Currently coalesced frames (frame index → owning GPU).
    frames: FxHashMap<u64, GpuId>,
    counters: PageSizeCounters,
}

impl LargePageTable {
    /// A table for the given mode with `pages_per_frame` base pages per
    /// 2 MB frame. The table is inert (never coalesces) under
    /// [`PageSizeMode::Uniform4k`] or when a frame holds fewer than two
    /// base pages.
    pub fn new(mode: PageSizeMode, pages_per_frame: u64) -> Self {
        LargePageTable {
            mode,
            pages_per_frame: pages_per_frame.max(1),
            frames: FxHashMap::default(),
            counters: PageSizeCounters::default(),
        }
    }

    /// A table derived from a full configuration (frame size from the
    /// base page size).
    pub fn from_config(mode: PageSizeMode, page_size: u64) -> Self {
        LargePageTable::new(mode, (PAGE_SIZE_2M / page_size.max(1)).max(1))
    }

    /// Whether large pages are managed at all.
    pub fn enabled(&self) -> bool {
        self.mode.large_pages_enabled() && self.pages_per_frame > 1
    }

    /// The configured management mode.
    pub fn mode(&self) -> PageSizeMode {
        self.mode
    }

    /// Base pages per 2 MB frame.
    pub fn pages_per_frame(&self) -> u64 {
        self.pages_per_frame
    }

    /// First base page of the frame containing `vpn`.
    pub fn frame_base(&self, vpn: PageId) -> PageId {
        PageId(vpn.vpn() / self.pages_per_frame * self.pages_per_frame)
    }

    /// The frame base when `vpn` lies inside a coalesced frame — also
    /// the key under which the large translation lives in the 2 MB TLBs.
    pub fn coalesced_frame(&self, vpn: PageId) -> Option<PageId> {
        if self.frames.is_empty() {
            return None;
        }
        let frame = vpn.vpn() / self.pages_per_frame;
        self.frames.contains_key(&frame).then(|| PageId(frame * self.pages_per_frame))
    }

    /// The GPU owning the coalesced frame containing `vpn`, if any.
    pub fn frame_owner(&self, vpn: PageId) -> Option<GpuId> {
        self.frames.get(&(vpn.vpn() / self.pages_per_frame)).copied()
    }

    /// Number of frames currently coalesced.
    pub fn coalesced_now(&self) -> u64 {
        self.frames.len() as u64
    }

    /// Cumulative activity counters.
    pub fn counters(&self) -> &PageSizeCounters {
        &self.counters
    }

    /// Checks whether the frame containing `vpn` is eligible for
    /// coalescing, consulting `lookup` for the authoritative state of
    /// each base page. Eligible means: the table is enabled, the frame
    /// is not already coalesced, it lies entirely inside the footprint,
    /// and every base page is owned by the same GPU with no replicas —
    /// plus, under [`PageSizeMode::Mixed`], every page has been touched
    /// (eagerly-migrated cold pages hold coalescing back until compute
    /// actually reaches them).
    ///
    /// Returns the frame base and owning GPU when eligible.
    pub fn coalesce_candidate(
        &self,
        vpn: PageId,
        footprint_pages: u64,
        mut lookup: impl FnMut(PageId) -> Option<BasePageView>,
    ) -> Option<(PageId, GpuId)> {
        if !self.enabled() {
            return None;
        }
        let frame = vpn.vpn() / self.pages_per_frame;
        if self.frames.contains_key(&frame) {
            return None;
        }
        let base = frame * self.pages_per_frame;
        if base + self.pages_per_frame > footprint_pages {
            // A frame straddling the end of the footprint can never be
            // fully resident; real systems would not back it with a
            // large page either.
            return None;
        }
        let require_touched = self.mode == PageSizeMode::Mixed;
        let mut owner: Option<GpuId> = None;
        for i in 0..self.pages_per_frame {
            let view = lookup(PageId(base + i))?;
            let page_owner = view.owner?;
            if view.replicated || (require_touched && !view.touched) {
                return None;
            }
            match owner {
                None => owner = Some(page_owner),
                Some(o) if o != page_owner => return None,
                Some(_) => {}
            }
        }
        owner.map(|o| (PageId(base), o))
    }

    /// Records the frame at `frame_base` as coalesced under `owner`.
    /// Idempotent for an already-coalesced frame (the counters only move
    /// on a real transition).
    pub fn coalesce(&mut self, frame_base: PageId, owner: GpuId) {
        if !self.enabled() {
            return;
        }
        let frame = frame_base.vpn() / self.pages_per_frame;
        if self.frames.insert(frame, owner).is_none() {
            self.counters.coalesces += 1;
            self.counters.coalesced_peak =
                self.counters.coalesced_peak.max(self.frames.len() as u64);
        }
    }

    /// Splinters the frame containing `vpn`, if coalesced, recording
    /// `cause`; returns the frame base and the owner the frame had (for
    /// trace events and the owner's large-TLB shootdown). A no-op
    /// returning `None` when the frame was not coalesced, so callers hook
    /// every sharing/eviction path unconditionally.
    pub fn splinter(&mut self, vpn: PageId, cause: SplinterCause) -> Option<(PageId, GpuId)> {
        if self.frames.is_empty() {
            return None;
        }
        let frame = vpn.vpn() / self.pages_per_frame;
        let owner = self.frames.remove(&frame)?;
        match cause {
            SplinterCause::FalseSharing => self.counters.splinters_false_sharing += 1,
            SplinterCause::Eviction => self.counters.splinters_eviction += 1,
            SplinterCause::Retirement => self.counters.splinters_retirement += 1,
        }
        Some((PageId(frame * self.pages_per_frame), owner))
    }

    /// Records an access-counter trip: `aliased_groups` is zero for a
    /// trip on an ordinary 64 KB group and the number of base 64 KB
    /// groups folded into the frame group for a trip on a coalesced
    /// frame.
    pub fn note_counter_trip(&mut self, aliased_groups: u64) {
        if aliased_groups == 0 {
            self.counters.counter_trips_base += 1;
        } else {
            self.counters.counter_trips_large += 1;
            self.counters.counter_groups_aliased += aliased_groups;
        }
    }

    /// The fixed-order `pagesize_counters` aux series for this table's
    /// current state (see [`PageSizeCounters::to_series`]).
    pub fn counter_series(&self) -> Vec<f64> {
        self.counters.to_series(self.coalesced_now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn private(owner: GpuId) -> impl FnMut(PageId) -> Option<BasePageView> {
        move |_| {
            Some(BasePageView {
                owner: Some(owner),
                replicated: false,
                touched: true,
            })
        }
    }

    #[test]
    fn uniform4k_is_inert() {
        let mut t = LargePageTable::new(PageSizeMode::Uniform4k, 512);
        assert!(!t.enabled());
        assert!(t.coalesce_candidate(PageId(0), 1 << 20, private(GpuId::new(0))).is_none());
        t.coalesce(PageId(0), GpuId::new(0));
        assert_eq!(t.coalesced_now(), 0);
        assert_eq!(t.coalesced_frame(PageId(0)), None);
    }

    #[test]
    fn coalesce_requires_single_unreplicated_owner() {
        let t = LargePageTable::new(PageSizeMode::Uniform2m, 4);
        let g0 = GpuId::new(0);
        // Fully private: eligible.
        assert_eq!(
            t.coalesce_candidate(PageId(6), 64, private(g0)),
            Some((PageId(4), g0))
        );
        // One page on another GPU: not eligible.
        let mixed_owner = |vpn: PageId| {
            Some(BasePageView {
                owner: Some(GpuId::new((vpn.vpn() == 5) as u8)),
                replicated: false,
                touched: true,
            })
        };
        assert_eq!(t.coalesce_candidate(PageId(6), 64, mixed_owner), None);
        // One page replicated: not eligible.
        let replicated = |vpn: PageId| {
            Some(BasePageView {
                owner: Some(g0),
                replicated: vpn.vpn() == 7,
                touched: true,
            })
        };
        assert_eq!(t.coalesce_candidate(PageId(6), 64, replicated), None);
        // One page host-resident (no owner): not eligible.
        let host = |vpn: PageId| {
            Some(BasePageView {
                owner: (vpn.vpn() != 4).then_some(g0),
                replicated: false,
                touched: true,
            })
        };
        assert_eq!(t.coalesce_candidate(PageId(6), 64, host), None);
    }

    #[test]
    fn mixed_mode_requires_touch_uniform2m_does_not() {
        let cold_tail = |vpn: PageId| {
            Some(BasePageView {
                owner: Some(GpuId::new(2)),
                replicated: false,
                touched: vpn.vpn() != 7,
            })
        };
        let eager = LargePageTable::new(PageSizeMode::Uniform2m, 4);
        assert!(eager.coalesce_candidate(PageId(4), 64, cold_tail).is_some());
        let mixed = LargePageTable::new(PageSizeMode::Mixed, 4);
        assert_eq!(mixed.coalesce_candidate(PageId(4), 64, cold_tail), None);
        assert!(mixed.coalesce_candidate(PageId(4), 64, private(GpuId::new(2))).is_some());
    }

    #[test]
    fn footprint_tail_frames_never_coalesce() {
        let t = LargePageTable::new(PageSizeMode::Uniform2m, 4);
        // Footprint of 6 pages: frame 1 (pages 4..8) sticks out past it.
        assert_eq!(
            t.coalesce_candidate(PageId(5), 6, private(GpuId::new(0))),
            None
        );
        assert!(t.coalesce_candidate(PageId(1), 6, private(GpuId::new(0))).is_some());
    }

    #[test]
    fn splinter_undoes_coalesce_and_counts_causes() {
        let mut t = LargePageTable::new(PageSizeMode::Mixed, 4);
        let g = GpuId::new(3);
        t.coalesce(PageId(8), g);
        t.coalesce(PageId(8), g); // idempotent
        assert_eq!(t.counters().coalesces, 1);
        assert_eq!(t.coalesced_frame(PageId(11)), Some(PageId(8)));
        assert_eq!(t.frame_owner(PageId(9)), Some(g));
        assert_eq!(
            t.splinter(PageId(10), SplinterCause::FalseSharing),
            Some((PageId(8), g))
        );
        // Already splintered: no-op.
        assert_eq!(t.splinter(PageId(10), SplinterCause::Eviction), None);
        assert_eq!(t.counters().splinters_false_sharing, 1);
        assert_eq!(t.counters().splinters_eviction, 0);
        assert_eq!(t.counters().splinters(), 1);
        assert_eq!(t.coalesced_now(), 0);
        assert_eq!(t.counters().coalesced_peak, 1);
    }

    #[test]
    fn counter_trips_track_aliasing() {
        let mut t = LargePageTable::new(PageSizeMode::Mixed, 512);
        t.note_counter_trip(0);
        t.note_counter_trip(32);
        t.note_counter_trip(32);
        let c = t.counters();
        assert_eq!(c.counter_trips_base, 1);
        assert_eq!(c.counter_trips_large, 2);
        assert_eq!(c.counter_groups_aliased, 64);
        let series = t.counter_series();
        assert_eq!(series.len(), 9);
        assert_eq!(series[4], 1.0);
        assert_eq!(series[5], 2.0);
        assert_eq!(series[6], 64.0);
    }

    #[test]
    fn splinter_cause_labels_round_trip() {
        for c in [
            SplinterCause::FalseSharing,
            SplinterCause::Eviction,
            SplinterCause::Retirement,
        ] {
            assert_eq!(SplinterCause::parse(c.name()), Some(c));
        }
        assert_eq!(SplinterCause::parse("cosmic-ray"), None);
    }
}
