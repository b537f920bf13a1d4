//! Per-GPU local page table.
//!
//! Each GPU holds translations only for pages it has faulted on; the
//! authoritative state lives in the UVM driver's centralized table
//! (`grit-uvm`). A local entry maps a virtual page either to local memory,
//! to a remote GPU's memory (counter-based scheme, §II-B2), or to a local
//! read-only replica (duplication, §II-B3).

use grit_sim::{GpuId, PageId};

/// How a GPU's local page table resolves a virtual page.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mapping {
    /// The page lives in this GPU's own memory and is writable.
    Local,
    /// The translation points at another GPU's memory; accesses go over
    /// NVLink at cache-line granularity.
    Remote(GpuId),
    /// The translation points at host (CPU) memory; accesses go over PCIe.
    /// This is where access-counter pages sit before their counter trips
    /// (NVIDIA leaves the page in place and counts remote accesses).
    RemoteHost,
    /// A local read-only replica exists (page duplication); writes raise a
    /// page protection fault.
    Replica,
}

impl Mapping {
    /// Whether a write through this mapping is legal without a fault.
    pub fn writable(self) -> bool {
        matches!(
            self,
            Mapping::Local | Mapping::Remote(_) | Mapping::RemoteHost
        )
    }
}

/// A GPU's local page table.
///
/// ```
/// use grit_mem::{LocalPageTable, Mapping};
/// use grit_sim::PageId;
///
/// let mut pt = LocalPageTable::new();
/// assert_eq!(pt.lookup(PageId(1)), None);
/// pt.map(PageId(1), Mapping::Local);
/// assert_eq!(pt.lookup(PageId(1)), Some(Mapping::Local));
/// assert!(pt.invalidate(PageId(1)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct LocalPageTable {
    /// Mappings indexed by VPN, grown on demand.
    entries: Vec<Option<Mapping>>,
    valid: usize,
    invalidations: u64,
}

impl LocalPageTable {
    /// An empty table.
    pub fn new() -> Self {
        LocalPageTable::default()
    }

    /// An empty table with room for VPNs `0..pages` (a workload's
    /// footprint); higher VPNs still map, growing the table.
    pub fn with_pages(pages: usize) -> Self {
        LocalPageTable {
            entries: vec![None; pages],
            ..LocalPageTable::default()
        }
    }

    /// Current mapping for a page, if any.
    pub fn lookup(&self, vpn: PageId) -> Option<Mapping> {
        self.entries.get(vpn.vpn() as usize).copied().flatten()
    }

    /// Installs or replaces a mapping.
    pub fn map(&mut self, vpn: PageId, mapping: Mapping) {
        let i = vpn.vpn() as usize;
        if i >= self.entries.len() {
            self.entries.resize(i + 1, None);
        }
        if self.entries[i].replace(mapping).is_none() {
            self.valid += 1;
        }
    }

    /// Removes a mapping; `true` if one was present.
    pub fn invalidate(&mut self, vpn: PageId) -> bool {
        let present = self.entries.get_mut(vpn.vpn() as usize).and_then(Option::take).is_some();
        if present {
            self.valid -= 1;
            self.invalidations += 1;
        }
        present
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.valid
    }

    /// Whether the table has no valid entries.
    pub fn is_empty(&self) -> bool {
        self.valid == 0
    }

    /// Count of PTE invalidations performed (coherence traffic indicator).
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Iterates `(page, mapping)` pairs in ascending VPN order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, Mapping)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.map(|m| (PageId(i as u64), m)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_lookup_invalidate() {
        let mut pt = LocalPageTable::new();
        pt.map(PageId(3), Mapping::Remote(GpuId::new(1)));
        assert_eq!(pt.lookup(PageId(3)), Some(Mapping::Remote(GpuId::new(1))));
        pt.map(PageId(3), Mapping::Local);
        assert_eq!(pt.lookup(PageId(3)), Some(Mapping::Local));
        assert_eq!(pt.len(), 1);
        assert!(pt.invalidate(PageId(3)));
        assert!(!pt.invalidate(PageId(3)));
        assert!(pt.is_empty());
        assert_eq!(pt.invalidations(), 1);
    }

    #[test]
    fn maps_past_the_presized_footprint() {
        let mut pt = LocalPageTable::with_pages(4);
        pt.map(PageId(2), Mapping::Local);
        // A next-page prefetch at the footprint edge lands past the end.
        pt.map(PageId(4), Mapping::Replica);
        pt.map(PageId(9), Mapping::RemoteHost);
        assert_eq!(pt.len(), 3);
        assert_eq!(pt.lookup(PageId(9)), Some(Mapping::RemoteHost));
        assert_eq!(pt.lookup(PageId(7)), None);
        assert_eq!(pt.lookup(PageId(100)), None);
        assert!(!pt.invalidate(PageId(100)));
        assert!(pt.invalidate(PageId(4)));
        assert_eq!(pt.len(), 2);
        let all: Vec<_> = pt.iter().collect();
        assert_eq!(
            all,
            vec![
                (PageId(2), Mapping::Local),
                (PageId(9), Mapping::RemoteHost)
            ]
        );
    }

    #[test]
    fn writability() {
        assert!(Mapping::Local.writable());
        assert!(Mapping::Remote(GpuId::new(0)).writable());
        assert!(Mapping::RemoteHost.writable());
        assert!(!Mapping::Replica.writable());
    }
}
