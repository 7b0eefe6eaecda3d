//! Generic buffer cache, evicting by SIEVE, its capacity a sum of weights.
//!
//! The paper's setup gives each index an LRU buffer cache in addition to the
//! memory-resident top level (§V). What the paper measures is block
//! *writes*, which no replacement policy can change, so the policy here is
//! chosen for the read path instead: SIEVE (Zhang et al., "SIEVE is Simpler
//! than LRU", NSDI 2024). A hit sets the entry's `visited` bit and relinks
//! nothing; an eviction walks a hand from the oldest entry towards the
//! newest, clearing visited bits and taking the first entry it finds
//! unvisited; new entries go in at the head, where the hand gets to last.
//! One-touch entries (a scan, a merge's outputs) are sifted out on the
//! hand's next pass while entries that are read again stay, which is what a
//! Zipf reader needs and LRU does not give it.
//!
//! Every entry has a weight and the capacity bounds their sum, so one cache
//! can hold entries of different sizes under one budget: an insert evicts,
//! in the hand's order, until the new entry fits. [`SieveCache::insert`]
//! weighs 1 — a capacity in entries.
//!
//! The implementation is an intrusive doubly-linked list over a dense slab
//! of entries plus a hash index — O(1) lookup, insert and removal, and
//! amortised O(1) eviction (every step of the hand clears a bit that a hit
//! had set).
//!
//! The index hashes with `MixHasher`, a fixed multiply–xorshift: a get
//! looks its key up once or twice, and the keys — block ids, generations,
//! user keys — are ones the engine already routes and Bloom-probes through
//! unkeyed mixers. The standard library's keyed SipHash defends a table
//! against keys chosen to collide; nothing outside the process chooses
//! these, and a front-end that took keys from a network would want the
//! keyed hash back.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use observe::{Event, SinkHandle};

const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    weight: usize,
    visited: bool,
    prev: usize, // towards the head (newer)
    next: usize, // towards the tail (older)
}

/// The index's hasher: one multiply–xorshift round per integer a key
/// writes, and a finish (the splitmix64 finalizer) after which every input
/// bit has reached every output bit — the table takes its bucket from the
/// low bits and its tag from the high ones.
#[derive(Default)]
struct MixHasher(u64);

impl Hasher for MixHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        let x = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 32);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    /// Anything else — bytes, and the narrow integers no key here has:
    /// eight bytes a round, the last round zero-extended (a `str` or a
    /// slice writes its own terminator or length besides).
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the key resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Sum of the resident entries' weights, never above `capacity`.
    pub resident: u64,
    /// The bound on `resident`.
    pub capacity: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1]; 0 if no lookups yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A cache mapping `K` to `V` whose resident entries weigh at most
/// `capacity` together, evicting by SIEVE. An entry that leaves — evicted,
/// removed or replaced — is dropped at once: the slab is dense, so no
/// vacated slot keeps a value alive.
pub struct SieveCache<K, V> {
    capacity: usize,
    /// Sum of the resident entries' weights.
    weight: usize,
    slab: Vec<Entry<K, V>>,
    index: HashMap<K, usize, BuildHasherDefault<MixHasher>>,
    head: usize, // newest
    tail: usize, // oldest
    /// Where the next eviction starts looking; `NIL` means at the tail.
    hand: usize,
    stats: CacheStats,
    sink: SinkHandle,
}

/// The name the cache had while it evicted by LRU; `perf/` imports it.
pub type LruCache<K, V> = SieveCache<K, V>;

impl<K: Eq + Hash + Clone, V: Clone> SieveCache<K, V> {
    /// Create a cache holding up to `capacity` of weight (must be ≥ 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        SieveCache {
            capacity,
            weight: 0,
            slab: Vec::with_capacity(capacity.min(1024)),
            index: HashMap::with_capacity_and_hasher(capacity.min(1024), Default::default()),
            head: NIL,
            tail: NIL,
            hand: NIL,
            stats: CacheStats::default(),
            sink: SinkHandle::none(),
        }
    }

    /// Register an event sink: the cache reports hits, misses and evictions
    /// as [`observe::Event`]s. Pass `SinkHandle::none()` to detach.
    pub fn set_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sum of the resident entries' weights.
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats { resident: self.weight as u64, capacity: self.capacity as u64, ..self.stats }
    }

    /// Take `idx` out of the list; the hand steps off it towards the head.
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if self.hand == idx {
            self.hand = prev;
        }
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Unlink the entry the hand settles on and return its slot, still
    /// holding the victim, for the caller to overwrite or
    /// [`vacate`](Self::vacate). The hand passes over `keep` (`NIL`: no
    /// such entry) as over a visited entry. There must be an entry other
    /// than `keep`.
    fn evict_one(&mut self, keep: usize) -> usize {
        let mut cur = if self.hand == NIL { self.tail } else { self.hand };
        while self.slab[cur].visited || cur == keep {
            self.slab[cur].visited = false;
            cur = self.slab[cur].prev;
            if cur == NIL {
                cur = self.tail;
            }
        }
        self.hand = cur;
        self.unlink(cur);
        self.index.remove(&self.slab[cur].key);
        self.weight -= self.slab[cur].weight;
        self.stats.evictions += 1;
        self.sink.emit_with(|| Event::CacheEviction);
        cur
    }

    /// Drop the unlinked, unindexed entry in slot `idx` and hand it back.
    /// The slab stays dense: its last entry moves to `idx`, and whatever
    /// named it by its old position is pointed here.
    fn vacate(&mut self, idx: usize) -> Entry<K, V> {
        let gone = self.slab.swap_remove(idx);
        let moved_from = self.slab.len();
        if idx != moved_from {
            let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
            match prev {
                NIL => self.head = idx,
                p => self.slab[p].next = idx,
            }
            match next {
                NIL => self.tail = idx,
                n => self.slab[n].prev = idx,
            }
            if self.hand == moved_from {
                self.hand = idx;
            }
            *self.index.get_mut(&self.slab[idx].key).expect("resident entries are indexed") = idx;
        }
        gone
    }

    /// Look up `key`; a hit marks the entry visited and moves nothing.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let found = self.hit(key);
        if found.is_none() {
            self.stats.misses += 1;
            self.sink.emit_with(|| Event::CacheMiss);
        }
        found
    }

    /// [`get`](Self::get) for a caller that has another key to try before
    /// its lookup is a miss: a resident `key` is a hit, an absent one
    /// counts as nothing.
    pub fn hit(&mut self, key: &K) -> Option<V> {
        let entry = &mut self.slab[*self.index.get(key)?];
        entry.visited = true;
        self.stats.hits += 1;
        self.sink.emit_with(|| Event::CacheHit);
        Some(entry.value.clone())
    }

    /// Peek without affecting the visited bit or statistics.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.index.get(key).map(|&idx| &self.slab[idx].value)
    }

    /// [`insert_weighted`](Self::insert_weighted) at weight 1.
    pub fn insert(&mut self, key: K, value: V) {
        self.insert_weighted(key, value, 1);
    }

    /// Insert `key` at the head, evicting entries until it fits. Replacing
    /// a resident key's value counts as a visit and keeps its place; its
    /// new weight counts, and other entries make room for it. An entry
    /// heavier than the capacity is refused (`false`) and changes nothing.
    pub fn insert_weighted(&mut self, key: K, value: V, weight: usize) -> bool {
        if weight > self.capacity {
            return false;
        }
        if let Some(&idx) = self.index.get(&key) {
            let entry = &mut self.slab[idx];
            self.weight = self.weight - entry.weight + weight;
            (entry.value, entry.weight, entry.visited) = (value, weight, true);
            let mut keep = idx;
            while self.weight > self.capacity {
                let victim = self.evict_one(keep);
                if keep == self.slab.len() - 1 {
                    keep = victim; // where `vacate` moves the last entry
                }
                self.vacate(victim);
            }
            return true;
        }
        let entry = Entry { key: key.clone(), value, weight, visited: false, prev: NIL, next: NIL };
        // Every victim but the last vacates its slot; the last one's slot
        // takes the new entry.
        let idx = loop {
            if self.weight + weight <= self.capacity {
                self.slab.push(entry);
                break self.slab.len() - 1;
            }
            let victim = self.evict_one(NIL);
            if self.weight + weight <= self.capacity {
                self.slab[victim] = entry;
                break victim;
            }
            self.vacate(victim);
        };
        self.weight += weight;
        self.index.insert(key, idx);
        self.push_front(idx);
        true
    }

    /// Drop `key` if resident, handing back its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.index.remove(key)?;
        self.unlink(idx);
        self.weight -= self.slab[idx].weight;
        Some(self.vacate(idx).value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_hit_and_miss() {
        let mut c: SieveCache<u32, &str> = SieveCache::new(2);
        assert_eq!(c.get(&1), None);
        c.insert(1, "one");
        assert_eq!(c.get(&1), Some("one"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn evicts_the_oldest_unvisited_entry() {
        let mut c: SieveCache<u32, u32> = SieveCache::new(3);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        c.get(&1); // the oldest entry is visited: the hand passes over it
        c.insert(4, 40);
        assert_eq!(c.peek(&2), None, "2 was the oldest unvisited entry");
        assert_eq!(c.peek(&1), Some(&10));
        // The hand stands at 3 with 1 behind it, its bit cleared. Visit
        // everything in front of the hand: it clears 3 and 4, reaches the
        // head, wraps around to the tail and takes 1.
        c.get(&3);
        c.get(&4);
        c.insert(5, 50);
        assert_eq!(c.peek(&1), None);
        // 3 is where the hand stands again, unvisited since the last pass.
        c.insert(6, 60);
        assert_eq!(c.peek(&3), None);
        assert_eq!((c.peek(&4), c.peek(&5), c.peek(&6)), (Some(&40), Some(&50), Some(&60)));
        assert_eq!(c.stats().evictions, 3);
    }

    #[test]
    fn replace_updates_value_without_eviction() {
        let mut c: SieveCache<u32, u32> = SieveCache::new(2);
        c.insert(1, 10);
        c.insert(1, 11);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn capacity_one_evicts_its_only_entry_visited_or_not() {
        let mut c: SieveCache<u32, u32> = SieveCache::new(1);
        c.insert(1, 10);
        c.get(&1);
        c.insert(2, 20);
        assert_eq!((c.peek(&1), c.peek(&2)), (None, Some(&20)));
        c.insert(3, 30);
        assert_eq!((c.peek(&2), c.peek(&3), c.len()), (None, Some(&30), 1));
    }

    #[test]
    fn the_hand_survives_removal_of_the_entry_it_points_at() {
        let mut c: SieveCache<u32, u32> = SieveCache::new(4);
        for k in 1..=4 {
            c.insert(k, k);
        }
        c.get(&1);
        c.insert(5, 5); // passes 1, evicts 2: the hand now points at 3
        assert_eq!(c.remove(&3), Some(3));
        assert_eq!(c.remove(&3), None);
        c.insert(6, 6); // room for one
        c.insert(7, 7); // the hand moved on to 4
        assert_eq!(c.peek(&4), None);
        for k in [1, 5, 6, 7] {
            assert_eq!(c.peek(&k), Some(&k), "{k} resident");
        }
    }

    /// A cached block is released the moment the cache lets go of it, not
    /// when its slot is next reused.
    #[test]
    fn removed_and_evicted_values_are_released_at_once() {
        let mut c: SieveCache<u32, Arc<[u8; 4096]>> = SieveCache::new(2);
        let (a, b) = (Arc::new([0u8; 4096]), Arc::new([1u8; 4096]));
        c.insert(1, Arc::clone(&a));
        c.insert(2, Arc::clone(&b));
        assert_eq!((Arc::strong_count(&a), Arc::strong_count(&b)), (2, 2));
        drop(c.remove(&2));
        assert_eq!(Arc::strong_count(&b), 1, "removed: the slot keeps nothing");
        c.insert(3, Arc::new([3u8; 4096]));
        c.insert(4, Arc::new([4u8; 4096]));
        assert_eq!(c.peek(&1), None);
        assert_eq!(Arc::strong_count(&a), 1, "evicted: dropped with the eviction");
    }

    /// How many gets of `trace` an LRU cache of `capacity` would have hit:
    /// last-use ticks, the oldest out first.
    fn lru_hits(trace: &[u32], capacity: usize) -> usize {
        let mut last_use: HashMap<u32, usize> = HashMap::new();
        let mut by_age: std::collections::BTreeMap<usize, u32> = Default::default();
        let mut hits = 0;
        for (tick, &k) in trace.iter().enumerate() {
            match last_use.insert(k, tick) {
                Some(before) => {
                    hits += 1;
                    by_age.remove(&before);
                }
                None if last_use.len() > capacity => {
                    let (_, oldest) = by_age.pop_first().expect("a full cache has an oldest entry");
                    last_use.remove(&oldest);
                }
                None => {}
            }
            by_age.insert(tick, k);
        }
        hits
    }

    /// The `read` workload's shape: Zipf(0.99) over 14 000 blocks, room for
    /// 1 024. What SIEVE keeps that LRU throws out is worth at least five
    /// points of hit rate.
    #[test]
    fn zipf_trace_beats_lru_by_five_points() {
        const KEYS: usize = 14_000;
        const CAPACITY: usize = 1_024;
        const GETS: usize = 400_000;
        let mut cdf: Vec<f64> = Vec::with_capacity(KEYS);
        let mut sum = 0.0;
        for rank in 1..=KEYS {
            sum += (rank as f64).powf(-0.99);
            cdf.push(sum);
        }
        let mut rng = crate::SplitMix64::new(7);
        let trace: Vec<u32> = (0..GETS)
            .map(|_| {
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * sum;
                cdf.partition_point(|&c| c < u).min(KEYS - 1) as u32
            })
            .collect();
        let mut c: SieveCache<u32, ()> = SieveCache::new(CAPACITY);
        for &k in &trace {
            if c.get(&k).is_none() {
                c.insert(k, ());
            }
        }
        let sieve = c.stats().hit_rate();
        let lru = lru_hits(&trace, CAPACITY) as f64 / GETS as f64;
        assert!(sieve >= lru + 0.05, "SIEVE {sieve:.3} vs LRU {lru:.3}");
    }

    /// A scan four times the cache's size does not wash out a hot set that
    /// was being re-read when it began.
    #[test]
    fn a_scan_leaves_the_hot_set_resident() {
        const CAPACITY: u32 = 64;
        let hot = 0..CAPACITY / 4;
        let mut c: SieveCache<u32, u32> = SieveCache::new(CAPACITY as usize);
        let read = |c: &mut SieveCache<u32, u32>, k: u32| {
            if c.get(&k).is_none() {
                c.insert(k, k);
            }
        };
        for _ in 0..2 {
            hot.clone().for_each(|k| read(&mut c, k));
        }
        (1_000..1_000 + 4 * CAPACITY).for_each(|k| read(&mut c, k));
        let misses_before = c.stats().misses;
        hot.clone().for_each(|k| read(&mut c, k));
        assert_eq!(c.stats().misses, misses_before, "every hot key was still resident");
    }

    #[test]
    fn slab_reuse_after_eviction_is_consistent() {
        let mut c: SieveCache<u32, u32> = SieveCache::new(3);
        for i in 0..100u32 {
            c.insert(i, i);
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(&99), Some(99));
        assert_eq!(c.get(&98), Some(98));
        assert_eq!(c.get(&97), Some(97));
        assert_eq!(c.get(&0), None);
    }

    #[test]
    fn the_index_hash_spreads_dense_keys_over_buckets_and_tags() {
        // What the table uses of a hash: low bits for the bucket, the top
        // seven for the tag. Keys as the store makes them — a variant, an
        // id, a generation, a user key, each counting up from zero.
        fn hash_of(key: &(impl Hash + ?Sized)) -> u64 {
            let mut h = MixHasher::default();
            key.hash(&mut h);
            h.finish()
        }
        #[derive(Hash)]
        enum Key {
            Block(u64),
            Record { id: u64, generation: u32, key: u64 },
        }
        const N: usize = 1 << 16;
        let keys = (0..N as u64).map(|i| match i % 2 {
            0 => Key::Block(i / 2),
            _ => Key::Record { id: i / 512, generation: (i / 8 % 4) as u32, key: i * 3 },
        });
        let (mut buckets, mut tags) = (vec![0u32; 1 << 10], vec![0u32; 1 << 7]);
        for key in keys {
            let h = hash_of(&key);
            buckets[h as usize % (1 << 10)] += 1;
            tags[(h >> 57) as usize] += 1;
        }
        // Uniform would put 64 in a bucket and 512 under a tag.
        assert!(buckets.iter().all(|&n| (32..=100).contains(&n)), "{buckets:?}");
        assert!(tags.iter().all(|&n| (400..=640).contains(&n)), "{tags:?}");
        // One flipped input bit moves about half of the output's.
        for bit in 0..64 {
            let moved = (hash_of(&Key::Block(12_345)) ^ hash_of(&Key::Block(12_345 ^ 1 << bit)))
                .count_ones();
            assert!((16..=48).contains(&moved), "id bit {bit}: {moved} output bits moved");
        }
        // A field that is not an integer goes through `write`.
        assert_ne!(hash_of(&"block"), hash_of(&"blocl"));
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 3, 0][..]));
    }

    #[test]
    fn hit_rate_reporting() {
        let mut c: SieveCache<u32, u32> = SieveCache::new(2);
        c.insert(1, 1);
        c.get(&1);
        c.get(&2);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-9);
        let empty: SieveCache<u32, u32> = SieveCache::new(2);
        assert_eq!(empty.stats().hit_rate(), 0.0);
    }
}
