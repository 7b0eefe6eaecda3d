//! L0 — the memory-resident top level.
//!
//! New data enters the index by "logging" modifications in L0 (§II-A): an
//! insert adds a record; a delete or update for a key already in L0 is
//! executed in place, otherwise it is logged as a new record (tombstones
//! for deletes). L0 is an in-memory sorted index; for merge-policy purposes
//! it is viewed as a sequence of *virtual blocks* of `B` consecutive
//! records, so partial-merge window selection works uniformly across all
//! levels.

use std::collections::{btree_map, BTreeMap};

use crate::record::{Key, OpKind, Record, Request};

/// Metadata of one virtual block of L0 (or, generally, any run of records).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunMeta {
    /// Smallest key in the chunk.
    pub min: Key,
    /// Largest key in the chunk.
    pub max: Key,
    /// Records in the chunk.
    pub count: u32,
}

/// The memory-resident top level.
#[derive(Debug, Default, Clone)]
pub struct Memtable {
    map: BTreeMap<Key, Record>,
}

impl Memtable {
    /// Empty L0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records (tombstones included — they occupy L0 capacity).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when L0 holds no records.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Apply one modification request (§II-A logging semantics).
    pub fn apply(&mut self, req: Request) {
        match req {
            Request::Put(k, payload) => {
                self.map.insert(k, Record { key: k, op: OpKind::Put, payload });
            }
            Request::Delete(k) => {
                self.map.insert(k, Record::delete(k));
            }
        }
    }

    /// Look up a key.
    pub fn get(&self, key: Key) -> Option<&Record> {
        self.map.get(&key)
    }

    /// Iterate the entries with keys in `[lo, hi]` (none when `lo > hi`).
    pub fn range(&self, lo: Key, hi: Key) -> btree_map::Range<'_, Key, Record> {
        // BTreeMap::range panics on inverted bounds: ask for an empty one.
        if lo > hi {
            self.map.range(lo..lo)
        } else {
            self.map.range(lo..=hi)
        }
    }

    /// Iterate all records in key order.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.map.values()
    }

    /// Chunk the current contents into virtual blocks of `b` records
    /// (the last chunk may be shorter). Policies select merge windows over
    /// these exactly as they select windows of physical blocks.
    pub fn virtual_blocks(&self, b: usize) -> Vec<RunMeta> {
        assert!(b > 0);
        let mut out = Vec::with_capacity(self.map.len().div_ceil(b));
        let mut iter = self.map.keys();
        let mut remaining = self.map.len();
        while remaining > 0 {
            let take = remaining.min(b);
            let first = *iter.next().expect("length accounted");
            let mut last = first;
            for _ in 1..take {
                last = *iter.next().expect("length accounted");
            }
            out.push(RunMeta { min: first, max: last, count: take as u32 });
            remaining -= take;
        }
        out
    }

    /// The records of `blocks` — consecutive entries of what
    /// [`virtual_blocks`](Memtable::virtual_blocks) returned for this table
    /// — in key order, reached through the first block's `min`: the cost
    /// is the window's, not the table's. A flush merges these down while
    /// the memtable stays as it was; the keys come out
    /// ([`remove_keys`](Memtable::remove_keys)) only when the merge is
    /// installed.
    pub fn window(&self, blocks: &[RunMeta]) -> Vec<Record> {
        let (Some(first), Some(last)) = (blocks.first(), blocks.last()) else { return Vec::new() };
        let mut out = Vec::with_capacity(blocks.iter().map(|b| b.count as usize).sum());
        out.extend(self.map.range(first.min..=last.max).map(|(_, r)| r.clone()));
        out
    }

    /// Remove `keys` — a flushed window, or with every key the whole
    /// table.
    pub fn remove_keys(&mut self, keys: &[Key]) {
        if keys.len() == self.map.len() {
            self.map.clear();
            return;
        }
        for k in keys {
            self.map.remove(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn put(k: Key) -> Request {
        Request::Put(k, Bytes::from_static(b"v"))
    }

    #[test]
    fn apply_upserts_and_tombstones() {
        let mut m = Memtable::new();
        m.apply(put(5));
        m.apply(put(5));
        assert_eq!(m.len(), 1);
        m.apply(Request::Delete(5));
        assert_eq!(m.len(), 1, "tombstone replaces, not removes");
        assert!(m.get(5).unwrap().is_tombstone());
        m.apply(put(5));
        assert!(!m.get(5).unwrap().is_tombstone());
    }

    #[test]
    fn inverted_range_is_empty() {
        let mut m = Memtable::new();
        m.apply(Request::Put(3, bytes::Bytes::new()));
        assert_eq!(m.range(5, 2).count(), 0);
        assert_eq!(m.range(u64::MAX, 0).count(), 0);
    }

    #[test]
    fn range_and_iter_are_ordered() {
        let mut m = Memtable::new();
        for k in [9u64, 1, 5, 3, 7] {
            m.apply(put(k));
        }
        let keys: Vec<Key> = m.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
        let mid: Vec<Key> = m.range(3, 7).map(|(_, r)| r.key).collect();
        assert_eq!(mid, vec![3, 5, 7]);
    }

    #[test]
    fn virtual_blocks_chunk_correctly() {
        let mut m = Memtable::new();
        for k in 0..7u64 {
            m.apply(put(k * 10));
        }
        let vb = m.virtual_blocks(3);
        assert_eq!(vb.len(), 3);
        assert_eq!(vb[0], RunMeta { min: 0, max: 20, count: 3 });
        assert_eq!(vb[1], RunMeta { min: 30, max: 50, count: 3 });
        assert_eq!(vb[2], RunMeta { min: 60, max: 60, count: 1 });
    }

    #[test]
    fn virtual_blocks_of_empty_table() {
        let m = Memtable::new();
        assert!(m.virtual_blocks(4).is_empty());
    }

    #[test]
    fn window_is_a_positional_chunk_and_leaves_the_table_alone() {
        let mut m = Memtable::new();
        for k in 0..10u64 {
            m.apply(put(k));
        }
        // blocks of 3: [0,1,2][3,4,5][6,7,8][9]; take blocks 1..3
        let recs = m.window(&m.virtual_blocks(3)[1..3]);
        let keys: Vec<Key> = recs.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![3, 4, 5, 6, 7, 8]);
        assert_eq!(m.len(), 10);
        m.remove_keys(&keys);
        let left: Vec<Key> = m.iter().map(|r| r.key).collect();
        assert_eq!(left, vec![0, 1, 2, 9]);
        assert!(m.window(&[]).is_empty());
        m.remove_keys(&left);
        assert!(m.is_empty());
    }

    #[test]
    fn window_matches_the_positional_walk_on_random_tables() {
        // The reference is the form `window` replaced: skip to the start
        // block from the front of the table.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        for _ in 0..200 {
            let mut m = Memtable::new();
            for _ in 0..next(120) {
                match next(4) {
                    0 => m.apply(Request::Delete(next(500))),
                    _ => m.apply(put(next(500))),
                }
            }
            let b = 1 + next(9) as usize;
            let blocks = m.virtual_blocks(b);
            // Every window of every table, the last short block included.
            for start in 0..blocks.len() {
                for end in start + 1..=blocks.len() {
                    let by_walk: Vec<Record> =
                        m.iter().skip(start * b).take((end - start) * b).cloned().collect();
                    assert_eq!(m.window(&blocks[start..end]), by_walk, "b {b} [{start}, {end})");
                }
            }
        }
    }
}
