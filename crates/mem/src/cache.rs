//! Generic set-associative cache with true-LRU replacement.
//!
//! One implementation serves every hardware lookup structure in the
//! reproduction: L1/L2 TLBs, the page-walk cache, the per-GPU L2 data cache,
//! and GRIT's 64-entry 4-way PA-Cache (paper Fig. 12, which indexes by the
//! low VPN bits — exactly what [`CacheKey::index`] provides for page keys).

use grit_sim::{GpuId, PageId};

/// Maps a key to its set-index source value.
///
/// The set is chosen as `index() % sets`, i.e. the low bits of the returned
/// value — matching the paper's PA-Cache ("the lower 4 bits of VPN").
pub trait CacheKey: Eq + Clone {
    /// Value whose low bits select the set.
    fn index(&self) -> u64;
}

impl CacheKey for u64 {
    fn index(&self) -> u64 {
        *self
    }
}

impl CacheKey for PageId {
    fn index(&self) -> u64 {
        self.vpn()
    }
}

impl CacheKey for (GpuId, PageId) {
    fn index(&self) -> u64 {
        // Mix the GPU into the high bits so per-GPU streams do not collide
        // pathologically in small shared structures.
        self.1.vpn() ^ ((self.0.index() as u64) << 57)
    }
}

impl CacheKey for (PageId, u16) {
    fn index(&self) -> u64 {
        // Page + line-in-page: lines of one page spread across sets.
        (self.0.vpn() << 6) | self.1 as u64 & 0x3f
    }
}

/// Hit/miss/eviction counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced by insertion.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; zero when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Set-associative cache with per-set true-LRU order (front = MRU).
///
/// Storage is flat: one key array and one value array of `sets × ways`
/// slots, where set `s` occupies slots `s × ways ..` and holds its
/// `fill[s]` resident entries MRU-first. Recency updates shift entries in
/// place within the set, so no operation allocates. The set is selected
/// with a mask when the set count is a power of two and with `%`
/// otherwise; both pick `index() % sets`.
///
/// ```
/// use grit_mem::SetAssocCache;
/// let mut c: SetAssocCache<u64, u32> = SetAssocCache::new(1, 2);
/// assert_eq!(c.insert(1, 10), None);
/// assert_eq!(c.insert(2, 20), None);
/// c.get(&1);                            // 1 becomes MRU
/// let evicted = c.insert(3, 30);        // 2 is LRU, displaced
/// assert_eq!(evicted, Some((2, 20)));
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache<K, V> {
    keys: Vec<K>,
    values: Vec<V>,
    /// Resident entries per set.
    fill: Vec<u32>,
    ways: usize,
    /// `sets - 1` when the set count is a power of two, else `None`.
    mask: Option<u64>,
    stats: CacheStats,
}

impl<K: CacheKey + Copy + Default, V: Copy + Default> SetAssocCache<K, V> {
    /// A cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(
            sets > 0 && ways > 0,
            "cache must have non-zero sets and ways"
        );
        SetAssocCache {
            keys: vec![K::default(); sets * ways],
            values: vec![V::default(); sets * ways],
            fill: vec![0; sets],
            ways,
            mask: sets.is_power_of_two().then_some(sets as u64 - 1),
            stats: CacheStats::default(),
        }
    }

    /// A cache from a total entry count and associativity.
    ///
    /// # Panics
    ///
    /// Panics if `ways` does not divide `entries`.
    pub fn with_entries(entries: usize, ways: usize) -> Self {
        assert!(
            ways > 0 && entries.is_multiple_of(ways),
            "entries must be a multiple of ways"
        );
        Self::new(entries / ways, ways)
    }

    fn set_of(&self, key: &K) -> usize {
        let index = key.index();
        match self.mask {
            Some(mask) => (index & mask) as usize,
            None => (index % self.fill.len() as u64) as usize,
        }
    }

    /// First slot of `set`.
    fn base(&self, set: usize) -> usize {
        set * self.ways
    }

    /// Position of `key` within `set`, MRU = 0.
    fn find(&self, set: usize, key: &K) -> Option<usize> {
        let base = self.base(set);
        let n = self.fill[set] as usize;
        self.keys[base..base + n].iter().position(|k| k == key)
    }

    /// Moves the entry at `from` to `to` within `set`, shifting the
    /// entries between them by one slot.
    fn shift(&mut self, set: usize, from: usize, to: usize) {
        if from == to {
            return;
        }
        let (from, to) = (self.base(set) + from, self.base(set) + to);
        let (key, value) = (self.keys[from], self.values[from]);
        if from > to {
            self.keys.copy_within(to..from, to + 1);
            self.values.copy_within(to..from, to + 1);
        } else {
            self.keys.copy_within(from + 1..=to, from);
            self.values.copy_within(from + 1..=to, from);
        }
        self.keys[to] = key;
        self.values[to] = value;
    }

    /// Places an absent key as MRU of `set`, returning the LRU entry it
    /// displaced when the set was full.
    fn fill_front(&mut self, set: usize, key: K, value: V) -> Option<(K, V)> {
        let base = self.base(set);
        let n = self.fill[set] as usize;
        let victim = if n == self.ways {
            self.stats.evictions += 1;
            Some((self.keys[base + n - 1], self.values[base + n - 1]))
        } else {
            self.fill[set] += 1;
            None
        };
        let kept = n.min(self.ways - 1);
        self.keys.copy_within(base..base + kept, base + 1);
        self.values.copy_within(base..base + kept, base + 1);
        self.keys[base] = key;
        self.values[base] = value;
        victim
    }

    /// Removes the entry at `pos` of `set`, returning it.
    fn remove_at(&mut self, set: usize, pos: usize) -> (K, V) {
        let base = self.base(set);
        let n = self.fill[set] as usize;
        let entry = (self.keys[base + pos], self.values[base + pos]);
        self.shift(set, pos, n - 1);
        self.fill[set] -= 1;
        entry
    }

    /// Counts a hit or miss for `key` and promotes a hit to MRU; returns
    /// the key's set and, on a hit, the position it was promoted from.
    fn lookup(&mut self, key: &K) -> (usize, Option<usize>) {
        let set = self.set_of(key);
        let pos = self.find(set, key);
        match pos {
            Some(pos) => {
                self.stats.hits += 1;
                self.shift(set, pos, 0);
            }
            None => self.stats.misses += 1,
        }
        (set, pos)
    }

    /// Looks the key up, counting a hit or miss and promoting a hit to MRU.
    pub fn get(&mut self, key: &K) -> Option<&mut V> {
        let (set, pos) = self.lookup(key);
        let base = self.base(set);
        pos.map(|_| &mut self.values[base])
    }

    /// Probes `key` with one scan of its set: a hit is counted and
    /// promoted to MRU exactly as [`SetAssocCache::get`] does. On a miss,
    /// which is counted likewise, `fill` runs; if it yields a value, the
    /// key is installed as MRU exactly as [`SetAssocCache::insert`] would
    /// install it, without scanning the set again. `fill` must not touch
    /// this cache (the borrow checker enforces it). Returns whether the
    /// key hit.
    pub fn get_or_fill(&mut self, key: K, fill: impl FnOnce() -> Option<V>) -> bool {
        let (set, pos) = self.lookup(&key);
        if pos.is_some() {
            return true;
        }
        if let Some(value) = fill() {
            self.fill_front(set, key, value);
        }
        false
    }

    /// Looks the key up without touching recency or statistics.
    pub fn peek(&self, key: &K) -> Option<&V> {
        let set = self.set_of(key);
        self.find(set, key).map(|pos| &self.values[self.base(set) + pos])
    }

    /// Inserts (or overwrites) the entry as MRU; returns the displaced LRU
    /// entry if the set was full with distinct keys.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        let set = self.set_of(&key);
        if let Some(pos) = self.find(set, &key) {
            let base = self.base(set);
            self.values[base + pos] = value;
            self.shift(set, pos, 0);
            return None;
        }
        self.fill_front(set, key, value)
    }

    /// Removes an entry, returning its value.
    pub fn invalidate(&mut self, key: &K) -> Option<V> {
        let set = self.set_of(key);
        let pos = self.find(set, key)?;
        Some(self.remove_at(set, pos).1)
    }

    /// Removes every entry for which `pred` returns true; returns how many
    /// were removed. Used for flushing all lines/translations of a page.
    pub fn invalidate_matching<F: FnMut(&K) -> bool>(&mut self, mut pred: F) -> usize {
        let mut removed = 0;
        for set in 0..self.fill.len() {
            let base = self.base(set);
            let n = self.fill[set] as usize;
            let mut kept = 0;
            for i in base..base + n {
                if !pred(&self.keys[i]) {
                    self.keys[base + kept] = self.keys[i];
                    self.values[base + kept] = self.values[i];
                    kept += 1;
                }
            }
            self.fill[set] = kept as u32;
            removed += n - kept;
        }
        removed
    }

    /// Empties the cache (TLB shootdown / cache flush).
    pub fn clear(&mut self) {
        self.fill.fill(0);
    }

    /// Current number of resident entries.
    pub fn len(&self) -> usize {
        self.fill.iter().map(|&n| n as usize).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.fill.iter().all(|&n| n == 0)
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Iterates all resident `(key, value)` pairs (no recency effect), set
    /// by set, MRU first within a set.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.fill.iter().enumerate().flat_map(move |(set, &n)| {
            let base = self.base(set);
            let range = base..base + n as usize;
            self.keys[range.clone()].iter().zip(&self.values[range])
        })
    }

    /// Drains every entry, returning them; used for write-back-all.
    pub fn drain_all(&mut self) -> Vec<(K, V)> {
        let out = self.iter().map(|(k, v)| (*k, *v)).collect();
        self.clear();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_accounting() {
        let mut c: SetAssocCache<u64, ()> = SetAssocCache::new(4, 2);
        assert!(c.get(&7).is_none());
        c.insert(7, ());
        assert!(c.get(&7).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_within_set() {
        // One set, two ways; keys 0,4,8 all map to set 0 of 4 sets? No:
        // force a single set so collisions are guaranteed.
        let mut c: SetAssocCache<u64, u32> = SetAssocCache::new(1, 2);
        c.insert(1, 1);
        c.insert(2, 2);
        c.get(&1);
        assert_eq!(c.insert(3, 3), Some((2, 2)));
        assert!(c.peek(&1).is_some());
        assert!(c.peek(&3).is_some());
        assert!(c.peek(&2).is_none());
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut c: SetAssocCache<u64, u32> = SetAssocCache::new(1, 2);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.insert(1, 99), None);
        assert_eq!(c.peek(&1), Some(&99));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn set_selection_uses_low_index_bits() {
        let mut c: SetAssocCache<u64, ()> = SetAssocCache::new(4, 1);
        // Keys 0 and 4 collide (same low bits mod 4); 1 does not.
        c.insert(0, ());
        c.insert(1, ());
        assert_eq!(c.insert(4, ()), Some((0, ())));
        assert!(c.peek(&1).is_some());
    }

    #[test]
    fn invalidate_and_matching() {
        let mut c: SetAssocCache<u64, u32> = SetAssocCache::new(8, 2);
        for k in 0..10 {
            c.insert(k, k as u32);
        }
        assert_eq!(c.invalidate(&3), Some(3));
        assert_eq!(c.invalidate(&3), None);
        let removed = c.invalidate_matching(|k| k % 2 == 0);
        assert_eq!(removed, 5);
        assert_eq!(c.len(), 4); // 1,5,7,9
    }

    #[test]
    fn clear_and_capacity() {
        let mut c: SetAssocCache<u64, ()> = SetAssocCache::with_entries(64, 4);
        assert_eq!(c.capacity(), 64);
        for k in 0..100 {
            c.insert(k, ());
        }
        assert!(c.len() <= 64);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn drain_all_returns_everything() {
        let mut c: SetAssocCache<u64, u32> = SetAssocCache::new(4, 4);
        for k in 0..8 {
            c.insert(k, k as u32);
        }
        let drained = c.drain_all();
        assert_eq!(drained.len(), 8);
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_geometry_panics() {
        let _: SetAssocCache<u64, ()> = SetAssocCache::new(0, 4);
    }
}
