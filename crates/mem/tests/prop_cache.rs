//! Property tests for the set-associative LRU cache against a naive model.

use proptest::prelude::*;

use grit_mem::{CacheStats, SetAssocCache};

/// A trivially correct reference model: per-set vectors in MRU order.
#[derive(Default)]
struct ModelCache {
    sets: Vec<Vec<(u64, u32)>>,
    ways: usize,
}

impl ModelCache {
    fn new(sets: usize, ways: usize) -> Self {
        ModelCache {
            sets: vec![Vec::new(); sets],
            ways,
        }
    }

    fn set_of(&self, k: u64) -> usize {
        (k % self.sets.len() as u64) as usize
    }

    fn get(&mut self, k: u64) -> Option<u32> {
        let s = self.set_of(k);
        let set = &mut self.sets[s];
        let pos = set.iter().position(|&(key, _)| key == k)?;
        let e = set.remove(pos);
        set.insert(0, e);
        Some(set[0].1)
    }

    fn insert(&mut self, k: u64, v: u32) -> Option<(u64, u32)> {
        let s = self.set_of(k);
        let set = &mut self.sets[s];
        if let Some(pos) = set.iter().position(|&(key, _)| key == k) {
            set.remove(pos);
            set.insert(0, (k, v));
            return None;
        }
        let victim = if set.len() == self.ways {
            set.pop()
        } else {
            None
        };
        set.insert(0, (k, v));
        victim
    }

    fn invalidate(&mut self, k: u64) -> Option<u32> {
        let s = self.set_of(k);
        let set = &mut self.sets[s];
        let pos = set.iter().position(|&(key, _)| key == k)?;
        Some(set.remove(pos).1)
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[derive(Clone, Debug)]
enum Op {
    Get(u64),
    Insert(u64, u32),
    Invalidate(u64),
    /// `get_or_fill`, filling `Some(v)` on a miss when the flag is set.
    GetOrFill(u64, u32, bool),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..64).prop_map(Op::Get),
        ((0u64..64), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0u64..64).prop_map(Op::Invalidate),
        ((0u64..64), any::<u32>(), any::<bool>()).prop_map(|(k, v, f)| Op::GetOrFill(k, v, f)),
    ]
}

/// Geometries under test: power-of-two set counts take the mask path,
/// the others the `%` path.
const GEOMETRIES: [(usize, usize); 4] = [(4, 3), (8, 2), (6, 3), (12, 4)];

/// Resident entries in iteration order (set by set, MRU first) plus
/// statistics: everything observable about a cache.
fn snapshot(c: &SetAssocCache<u64, u32>) -> (Vec<(u64, u32)>, CacheStats) {
    (c.iter().map(|(k, v)| (*k, *v)).collect(), c.stats())
}

fn count_lookup(stats: &mut CacheStats, hit: bool) {
    if hit {
        stats.hits += 1;
    } else {
        stats.misses += 1;
    }
}

fn check_against_model(sets: usize, ways: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut real: SetAssocCache<u64, u32> = SetAssocCache::new(sets, ways);
    let mut model = ModelCache::new(sets, ways);
    let mut expected = CacheStats::default();
    for op in ops {
        match *op {
            Op::Get(k) => {
                let got = real.get(&k).map(|v| *v);
                let want = model.get(k);
                count_lookup(&mut expected, want.is_some());
                prop_assert_eq!(got, want);
            }
            Op::Insert(k, v) => {
                let victim = model.insert(k, v);
                expected.evictions += u64::from(victim.is_some());
                prop_assert_eq!(real.insert(k, v), victim);
            }
            Op::Invalidate(k) => {
                prop_assert_eq!(real.invalidate(&k), model.invalidate(k));
            }
            Op::GetOrFill(k, v, fill) => {
                let mut called = false;
                let hit = real.get_or_fill(k, || {
                    called = true;
                    fill.then_some(v)
                });
                let model_hit = model.get(k).is_some();
                count_lookup(&mut expected, model_hit);
                prop_assert_eq!(hit, model_hit);
                prop_assert_eq!(called, !model_hit);
                if !model_hit && fill {
                    expected.evictions += u64::from(model.insert(k, v).is_some());
                }
            }
        }
        prop_assert_eq!(real.len(), model.len());
        prop_assert!(real.len() <= real.capacity());
        prop_assert_eq!(real.stats(), expected);
    }
    for set in &model.sets {
        for &(k, v) in set {
            prop_assert_eq!(real.peek(&k), Some(&v));
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn cache_matches_reference_model(ops in prop::collection::vec(op_strategy(), 1..400)) {
        for (sets, ways) in GEOMETRIES {
            check_against_model(sets, ways, &ops)?;
        }
    }

    #[test]
    fn recorded_ops_match_plain_ops_and_undo_exactly(
        prefix in prop::collection::vec(((0u64..48), any::<u32>(), any::<bool>()), 0..80),
        ops in prop::collection::vec(((0u64..48), any::<u32>(), any::<bool>()), 1..120),
    ) {
        for (sets, ways) in GEOMETRIES {
            let mut recorded: SetAssocCache<u64, u32> = SetAssocCache::new(sets, ways);
            let mut plain: SetAssocCache<u64, u32> = SetAssocCache::new(sets, ways);
            for &(k, v, is_get) in &prefix {
                for c in [&mut recorded, &mut plain] {
                    if is_get {
                        c.get(&k);
                    } else {
                        c.insert(k, v);
                    }
                }
            }
            let before = snapshot(&recorded);
            let mut undos = Vec::new();
            for &(k, v, is_get) in &ops {
                if is_get {
                    let (hit, undo) = recorded.get_recorded(&k);
                    prop_assert_eq!(hit, plain.get(&k).is_some());
                    undos.push(undo);
                } else {
                    undos.push(recorded.insert_recorded(k, v));
                    plain.insert(k, v);
                }
                prop_assert_eq!(snapshot(&recorded), snapshot(&plain));
            }
            for undo in undos.into_iter().rev() {
                recorded.undo(undo);
            }
            prop_assert_eq!(snapshot(&recorded), before);
        }
    }

    #[test]
    fn capacity_never_exceeded(keys in prop::collection::vec(any::<u64>(), 1..600)) {
        for entries in [32, 24] {
            let mut c: SetAssocCache<u64, ()> = SetAssocCache::with_entries(entries, 4);
            for &k in &keys {
                c.insert(k, ());
                prop_assert!(c.len() <= entries);
            }
        }
    }

    #[test]
    fn resident_keys_always_hit(keys in prop::collection::vec(0u64..16, 1..100)) {
        // With 16 possible keys and capacity 32 over 8 sets / 4 ways, every
        // set holds at most 2 distinct keys -> nothing is ever evicted and
        // every earlier insert must still hit.
        let mut c: SetAssocCache<u64, ()> = SetAssocCache::new(8, 4);
        let mut inserted = std::collections::HashSet::new();
        for k in keys {
            c.insert(k, ());
            inserted.insert(k);
            for &p in &inserted {
                prop_assert!(c.peek(&p).is_some(), "key {} lost", p);
            }
        }
    }

    #[test]
    fn stats_account_every_lookup(keys in prop::collection::vec(0u64..32, 1..200)) {
        let mut c: SetAssocCache<u64, ()> = SetAssocCache::new(4, 2);
        let mut lookups = 0u64;
        for k in keys {
            let _ = c.get(&k);
            lookups += 1;
            c.insert(k, ());
        }
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses, lookups);
    }
}
