//! Property tests for the storage substrate: the SIEVE cache against a
//! reference model, the allocator against a set model, and device
//! round-trips under arbitrary operation sequences.

use proptest::prelude::*;

use sim_ssd::{BlockAllocator, BlockDevice, BlockId, MemDevice, SieveCache};

// ---------------------------------------------------------------------
// The cache vs a straightforward SIEVE model.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum CacheOp {
    Get(u16),
    /// Key, value, and what its weight is drawn from.
    Insert(u16, u32, usize),
    Remove(u16),
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        4 => (any::<u16>(), any::<u32>(), any::<usize>())
            .prop_map(|(k, v, w)| CacheOp::Insert(k % 40, v, w)),
        4 => any::<u16>().prop_map(|k| CacheOp::Get(k % 40)),
        1 => any::<u16>().prop_map(|k| CacheOp::Remove(k % 40)),
    ]
}

#[derive(Debug, Clone, Copy)]
struct ModelEntry {
    key: u16,
    value: u32,
    visited: bool,
    weight: usize,
}

/// Reference model: a vector ordered newest first, and the hand as the key
/// it points at (`None`: the next eviction starts at the oldest entry).
#[derive(Default)]
struct ModelSieve {
    entries: Vec<ModelEntry>,
    hand: Option<u16>,
    capacity: usize,
    evictions: u64,
}

impl ModelSieve {
    fn find(&self, k: u16) -> Option<usize> {
        self.entries.iter().position(|e| e.key == k)
    }
    fn weight(&self) -> usize {
        self.entries.iter().map(|e| e.weight).sum()
    }
    fn get(&mut self, k: u16) -> Option<u32> {
        let i = self.find(k)?;
        self.entries[i].visited = true;
        Some(self.entries[i].value)
    }
    /// Evict where the hand settles; it passes over `keep` as over a
    /// visited entry.
    fn evict_one(&mut self, keep: Option<u16>) {
        let oldest = self.entries.len() - 1;
        let mut i = self.hand.map_or(oldest, |h| self.find(h).expect("hand is resident"));
        while self.entries[i].visited || Some(self.entries[i].key) == keep {
            self.entries[i].visited = false;
            i = i.checked_sub(1).unwrap_or(oldest);
        }
        self.hand = i.checked_sub(1).map(|newer| self.entries[newer].key);
        self.entries.remove(i);
        self.evictions += 1;
    }
    fn insert(&mut self, key: u16, value: u32, weight: usize) -> bool {
        if weight > self.capacity {
            return false;
        }
        let fresh = ModelEntry { key, value, visited: false, weight };
        match self.find(key) {
            Some(i) => {
                self.entries[i] = ModelEntry { visited: true, ..fresh };
                while self.weight() > self.capacity {
                    self.evict_one(Some(key));
                }
            }
            None => {
                while self.weight() + weight > self.capacity {
                    self.evict_one(None);
                }
                self.entries.insert(0, fresh);
            }
        }
        true
    }
    fn remove(&mut self, k: u16) -> Option<u32> {
        let i = self.find(k)?;
        if self.hand == Some(k) {
            self.hand = i.checked_sub(1).map(|newer| self.entries[newer].key);
        }
        Some(self.entries.remove(i).value)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    /// Same answers, same residents and as many evictions after every step
    /// — so, every time room is made, the same victims — capacity 1
    /// included; at these sizes (40 keys, ≤ 11 of weight) removals often
    /// hit the entry the hand is at. With `max_weight` 1 every entry weighs
    /// 1 and goes in through `insert`; otherwise weights run to one above
    /// `max_weight`'s share of the capacity, so some inserts evict several
    /// entries, some replace a resident key at another weight, and some
    /// are heavier than the cache and refused.
    #[test]
    fn sieve_cache_matches_reference_model(
        capacity in 1usize..12,
        max_weight in prop_oneof![Just(1usize), Just(5), Just(13)],
        ops in prop::collection::vec(cache_op(), 1..300),
    ) {
        let mut cache: SieveCache<u16, u32> = SieveCache::new(capacity);
        let mut model = ModelSieve { capacity, ..ModelSieve::default() };
        for op in ops {
            match op {
                CacheOp::Get(k) => prop_assert_eq!(cache.get(&k), model.get(k)),
                CacheOp::Insert(k, v, _) if max_weight == 1 => {
                    cache.insert(k, v);
                    model.insert(k, v, 1);
                }
                CacheOp::Insert(k, v, w) => {
                    let w = 1 + w % max_weight;
                    let before = (cache.len(), cache.weight());
                    let taken = cache.insert_weighted(k, v, w);
                    prop_assert_eq!(taken, model.insert(k, v, w));
                    prop_assert_eq!(taken, w <= capacity, "only an entry heavier than the cache is refused");
                    if !taken {
                        prop_assert_eq!((cache.len(), cache.weight()), before);
                    }
                }
                CacheOp::Remove(k) => prop_assert_eq!(cache.remove(&k), model.remove(k)),
            }
            prop_assert_eq!(cache.len(), model.entries.len());
            for e in &model.entries {
                prop_assert_eq!(cache.peek(&e.key), Some(&e.value), "{} not resident", e.key);
            }
            let stats = cache.stats();
            prop_assert_eq!(cache.weight(), model.weight(), "a replaced entry is re-weighed");
            prop_assert!(cache.weight() <= capacity);
            prop_assert_eq!((stats.resident, stats.capacity), (model.weight() as u64, capacity as u64));
            prop_assert_eq!(stats.evictions, model.evictions);
        }
    }

    // -----------------------------------------------------------------
    // Allocator: no double-handouts, frees recycle, capacity respected.
    // -----------------------------------------------------------------
    #[test]
    fn allocator_never_hands_out_a_live_id(
        capacity in 1u64..64,
        ops in prop::collection::vec(any::<bool>(), 1..300),
    ) {
        let alloc = BlockAllocator::new(capacity);
        let mut live = std::collections::HashSet::new();
        for take in ops {
            if take {
                match alloc.alloc() {
                    Ok(id) => {
                        prop_assert!(live.insert(id.0), "double allocation of {id}");
                        prop_assert!(id.0 < capacity);
                    }
                    Err(_) => prop_assert_eq!(live.len() as u64, capacity),
                }
            } else if let Some(&id) = live.iter().next() {
                live.remove(&id);
                alloc.free(BlockId(id));
            }
            prop_assert_eq!(alloc.live_blocks(), live.len() as u64);
        }
    }

    #[test]
    fn allocator_restore_equals_replay(used in prop::collection::btree_set(0u64..64, 0..32)) {
        let capacity = 64;
        let restored = BlockAllocator::with_allocated(capacity, used.iter().copied());
        prop_assert_eq!(restored.live_blocks(), used.len() as u64);
        // Draining every free id never yields a used one and covers
        // exactly the complement.
        let mut seen = std::collections::BTreeSet::new();
        while let Ok(id) = restored.alloc() {
            prop_assert!(!used.contains(&id.0), "restored allocator reissued live id {id}");
            prop_assert!(seen.insert(id.0));
        }
        prop_assert_eq!(seen.len() as u64, capacity - used.len() as u64);
    }

    // -----------------------------------------------------------------
    // Device: last write wins, trims forget, counters exact.
    // -----------------------------------------------------------------
    #[test]
    fn device_is_a_key_value_store_of_frames(
        ops in prop::collection::vec((0u64..16, any::<u8>(), any::<bool>()), 1..200),
    ) {
        let dev = MemDevice::with_block_size(16, 32);
        let mut model: std::collections::HashMap<u64, u8> = Default::default();
        let mut writes = 0u64;
        let mut trims = 0u64;
        for (id, fill, is_write) in ops {
            if is_write {
                dev.write(BlockId(id), &[fill; 32]).unwrap();
                model.insert(id, fill);
                writes += 1;
            } else {
                dev.trim(BlockId(id)).unwrap();
                model.remove(&id);
                trims += 1;
            }
        }
        for id in 0..16u64 {
            match model.get(&id) {
                Some(&fill) => {
                    prop_assert_eq!(&dev.read(BlockId(id)).unwrap()[..], &[fill; 32][..])
                }
                None => prop_assert!(dev.read(BlockId(id)).is_err()),
            }
        }
        let snap = dev.io_snapshot();
        prop_assert_eq!(snap.writes, writes);
        prop_assert_eq!(snap.trims, trims);
        prop_assert_eq!(dev.wear_summary().total_programs, writes);
    }
}
