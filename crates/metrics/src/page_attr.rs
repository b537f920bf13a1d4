//! Per-page attribute tracking: private vs shared, read vs read-write
//! (paper §IV-B, Figs. 4 and 9).

use grit_sim::{AccessKind, GpuId, GpuSet, PageId};

#[derive(Clone, Copy, Debug, Default)]
struct PageRecord {
    /// Whether the page has a record at all (slots past the pages seen
    /// so far are untouched defaults).
    touched: bool,
    accessors: GpuSet,
    written: bool,
    accesses: u64,
}

/// Aggregated attribute percentages, the quantities plotted in Figs. 4 & 9.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct PageAttrSummary {
    /// Pages touched at all.
    pub total_pages: u64,
    /// Pages accessed by exactly one GPU over the whole run.
    pub private_pages: u64,
    /// Pages accessed by more than one GPU.
    pub shared_pages: u64,
    /// Accesses that went to private pages.
    pub accesses_to_private: u64,
    /// Accesses that went to shared pages.
    pub accesses_to_shared: u64,
    /// Pages never written.
    pub read_pages: u64,
    /// Pages written at least once.
    pub read_write_pages: u64,
    /// Accesses that went to read-only pages.
    pub accesses_to_read: u64,
    /// Accesses that went to read-write pages.
    pub accesses_to_read_write: u64,
    /// Pages that are both shared and read-write (the hard class of §VI-A).
    pub shared_read_write_pages: u64,
}

impl PageAttrSummary {
    /// Fraction of pages that are shared.
    pub fn shared_page_frac(&self) -> f64 {
        frac(self.shared_pages, self.total_pages)
    }

    /// Fraction of accesses going to shared pages.
    pub fn shared_access_frac(&self) -> f64 {
        frac(
            self.accesses_to_shared,
            self.accesses_to_private + self.accesses_to_shared,
        )
    }

    /// Fraction of pages that are read-write.
    pub fn read_write_page_frac(&self) -> f64 {
        frac(self.read_write_pages, self.total_pages)
    }

    /// Fraction of accesses going to read-write pages.
    pub fn read_write_access_frac(&self) -> f64 {
        frac(
            self.accesses_to_read_write,
            self.accesses_to_read + self.accesses_to_read_write,
        )
    }

    /// Fraction of pages that are shared *and* read-write.
    pub fn shared_read_write_frac(&self) -> f64 {
        frac(self.shared_read_write_pages, self.total_pages)
    }
}

fn frac(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Tracks whole-run page attributes.
///
/// Definitions follow the paper exactly: a *private page* is accessed by
/// one GPU during the entire execution; a *read page* never sees a write.
///
/// ```
/// use grit_metrics::PageAttrTracker;
/// use grit_sim::{AccessKind, GpuId, PageId};
///
/// let mut t = PageAttrTracker::new();
/// t.record(GpuId::new(0), PageId(1), AccessKind::Read);
/// t.record(GpuId::new(1), PageId(1), AccessKind::Write);
/// t.record(GpuId::new(0), PageId(2), AccessKind::Read);
/// let s = t.summary();
/// assert_eq!(s.shared_pages, 1);
/// assert_eq!(s.private_pages, 1);
/// assert_eq!(s.read_write_pages, 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PageAttrTracker {
    /// Records indexed by VPN, grown on demand.
    pages: Vec<PageRecord>,
    touched_pages: usize,
}

impl PageAttrTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        PageAttrTracker::default()
    }

    /// An empty tracker with room for VPNs `0..pages` (a workload's
    /// footprint); higher VPNs still record, growing the table.
    pub fn with_pages(pages: usize) -> Self {
        PageAttrTracker {
            pages: vec![PageRecord::default(); pages],
            touched_pages: 0,
        }
    }

    fn get(&self, vpn: PageId) -> Option<&PageRecord> {
        self.pages.get(vpn.vpn() as usize).filter(|r| r.touched)
    }

    /// The record of `vpn`, created on first use.
    fn entry(&mut self, vpn: PageId) -> &mut PageRecord {
        let i = vpn.vpn() as usize;
        if i >= self.pages.len() {
            self.pages.resize(i + 1, PageRecord::default());
        }
        let rec = &mut self.pages[i];
        if !rec.touched {
            rec.touched = true;
            self.touched_pages += 1;
        }
        rec
    }

    /// Touched pages with their records, in ascending VPN order.
    fn records(&self) -> impl Iterator<Item = (PageId, &PageRecord)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter(|(_, r)| r.touched)
            .map(|(i, r)| (PageId(i as u64), r))
    }

    /// Records one access.
    pub fn record(&mut self, gpu: GpuId, vpn: PageId, kind: AccessKind) {
        let rec = self.entry(vpn);
        rec.accessors.insert(gpu);
        rec.written |= kind.is_write();
        rec.accesses += 1;
    }

    /// Whether the page has been touched by more than one GPU so far.
    pub fn is_shared(&self, vpn: PageId) -> bool {
        self.get(vpn).is_some_and(|r| r.accessors.len() > 1)
    }

    /// Whether the page has been written so far.
    pub fn is_written(&self, vpn: PageId) -> bool {
        self.get(vpn).is_some_and(|r| r.written)
    }

    /// Number of distinct pages touched.
    pub fn pages_touched(&self) -> usize {
        self.touched_pages
    }

    /// The most-accessed page with at least `min_sharers` distinct GPU
    /// accessors — how the Fig. 5/10 drivers pick "a certain page" to
    /// track. Deterministic: ties break toward the lowest VPN.
    pub fn hottest(&self, min_sharers: usize) -> Option<PageId> {
        self.records()
            .filter(|(_, r)| r.accessors.len() >= min_sharers)
            .max_by_key(|(vpn, r)| (r.accesses, std::cmp::Reverse(vpn.vpn())))
            .map(|(vpn, _)| vpn)
    }

    /// Like [`PageAttrTracker::hottest`] but restricted to pages with at
    /// least one write (Fig. 10 tracks a read-write page).
    pub fn hottest_written(&self, min_sharers: usize) -> Option<PageId> {
        self.records()
            .filter(|(_, r)| r.accessors.len() >= min_sharers && r.written)
            .max_by_key(|(vpn, r)| (r.accesses, std::cmp::Reverse(vpn.vpn())))
            .map(|(vpn, _)| vpn)
    }

    /// Iterates `(page, sharer count, written, accesses)` for every page
    /// touched, in ascending VPN order — profile data for oracle-style
    /// placement.
    pub fn iter_pages(&self) -> impl Iterator<Item = (PageId, usize, bool, u64)> + '_ {
        self.records().map(|(vpn, r)| (vpn, r.accessors.len(), r.written, r.accesses))
    }

    /// Exports every page record as `(vpn, accessor bitmask, written,
    /// accesses)`, sorted by VPN — a stable wire form for on-disk result
    /// stores. [`PageAttrTracker::from_exported`] inverts it exactly.
    pub fn export_pages(&self) -> Vec<(u64, u16, bool, u64)> {
        self.records()
            .map(|(vpn, r)| (vpn.vpn(), r.accessors.bits(), r.written, r.accesses))
            .collect()
    }

    /// Rebuilds a tracker from [`PageAttrTracker::export_pages`] rows.
    pub fn from_exported(rows: &[(u64, u16, bool, u64)]) -> Self {
        let mut t = PageAttrTracker::new();
        for &(vpn, bits, written, accesses) in rows {
            let rec = t.entry(PageId(vpn));
            rec.accessors = GpuSet::from_bits(bits);
            rec.written = written;
            rec.accesses = accesses;
        }
        t
    }

    /// Aggregates the whole-run summary.
    pub fn summary(&self) -> PageAttrSummary {
        let mut s = PageAttrSummary::default();
        for (_, rec) in self.records() {
            s.total_pages += 1;
            let shared = rec.accessors.len() > 1;
            if shared {
                s.shared_pages += 1;
                s.accesses_to_shared += rec.accesses;
            } else {
                s.private_pages += 1;
                s.accesses_to_private += rec.accesses;
            }
            if rec.written {
                s.read_write_pages += 1;
                s.accesses_to_read_write += rec.accesses;
                if shared {
                    s.shared_read_write_pages += 1;
                }
            } else {
                s.read_pages += 1;
                s.accesses_to_read += rec.accesses;
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(i: u8) -> GpuId {
        GpuId::new(i)
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = PageAttrTracker::new().summary();
        assert_eq!(s.total_pages, 0);
        assert_eq!(s.shared_page_frac(), 0.0);
        assert_eq!(s.read_write_access_frac(), 0.0);
    }

    #[test]
    fn private_vs_shared_classification() {
        let mut t = PageAttrTracker::new();
        for _ in 0..10 {
            t.record(g(0), PageId(1), AccessKind::Read);
        }
        t.record(g(0), PageId(2), AccessKind::Read);
        t.record(g(1), PageId(2), AccessKind::Read);
        let s = t.summary();
        assert_eq!(s.private_pages, 1);
        assert_eq!(s.shared_pages, 1);
        assert_eq!(s.accesses_to_private, 10);
        assert_eq!(s.accesses_to_shared, 2);
        assert!((s.shared_page_frac() - 0.5).abs() < 1e-12);
        assert!((s.shared_access_frac() - 2.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn read_write_classification_counts_all_accesses() {
        let mut t = PageAttrTracker::new();
        t.record(g(0), PageId(1), AccessKind::Read);
        t.record(g(0), PageId(1), AccessKind::Write);
        t.record(g(0), PageId(1), AccessKind::Read);
        let s = t.summary();
        assert_eq!(s.read_write_pages, 1);
        assert_eq!(s.accesses_to_read_write, 3);
        assert!(t.is_written(PageId(1)));
    }

    #[test]
    fn shared_read_write_intersection() {
        let mut t = PageAttrTracker::new();
        t.record(g(0), PageId(1), AccessKind::Write);
        t.record(g(1), PageId(1), AccessKind::Read);
        t.record(g(0), PageId(2), AccessKind::Write); // private RW
        t.record(g(0), PageId(3), AccessKind::Read);
        t.record(g(1), PageId(3), AccessKind::Read); // shared read
        let s = t.summary();
        assert_eq!(s.shared_read_write_pages, 1);
        assert!((s.shared_read_write_frac() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn export_import_round_trip() {
        let mut t = PageAttrTracker::new();
        t.record(g(0), PageId(7), AccessKind::Write);
        t.record(g(1), PageId(7), AccessKind::Read);
        t.record(g(2), PageId(3), AccessKind::Read);
        t.record(g(2), PageId(3), AccessKind::Read);
        let rows = t.export_pages();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 3); // sorted by vpn
        let back = PageAttrTracker::from_exported(&rows);
        assert_eq!(back.summary(), t.summary());
        assert_eq!(back.export_pages(), rows);
        assert!(back.is_shared(PageId(7)));
        assert!(back.is_written(PageId(7)));
        assert_eq!(back.hottest(1), t.hottest(1));
    }

    #[test]
    fn records_past_the_presized_footprint() {
        let mut t = PageAttrTracker::with_pages(4);
        t.record(g(0), PageId(2), AccessKind::Read);
        // A next-page prefetch at the footprint edge lands past the end.
        t.record(g(1), PageId(4), AccessKind::Write);
        t.record(g(0), PageId(9), AccessKind::Read);
        t.record(g(2), PageId(9), AccessKind::Read);
        assert_eq!(t.pages_touched(), 3);
        assert!(t.is_shared(PageId(9)) && t.is_written(PageId(4)));
        assert!(!t.is_shared(PageId(7)) && !t.is_written(PageId(100)));
        let pages: Vec<_> = t.iter_pages().collect();
        assert_eq!(
            pages,
            vec![
                (PageId(2), 1, false, 1),
                (PageId(4), 1, true, 1),
                (PageId(9), 2, false, 2),
            ]
        );
        assert_eq!(t.summary().total_pages, 3);
        let rows = t.export_pages();
        assert_eq!(PageAttrTracker::from_exported(&rows).export_pages(), rows);
    }

    #[test]
    fn incremental_queries() {
        let mut t = PageAttrTracker::new();
        t.record(g(0), PageId(9), AccessKind::Read);
        assert!(!t.is_shared(PageId(9)));
        t.record(g(2), PageId(9), AccessKind::Read);
        assert!(t.is_shared(PageId(9)));
        assert_eq!(t.pages_touched(), 1);
    }
}
