//! L0 — the memory-resident top level.
//!
//! New data enters the index by "logging" modifications in L0 (§II-A): an
//! insert adds a record; a delete or update for a key already in L0 is
//! executed in place, otherwise it is logged as a new record (tombstones
//! for deletes). L0 is an in-memory sorted index; for merge-policy purposes
//! it is viewed as a sequence of *virtual blocks* of `B` consecutive
//! records, so partial-merge window selection works uniformly across all
//! levels.

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

/// Most records a leaf holds (≈ 2.5 KB of 40-byte records): an insert
/// moves at most this many, a split leaves two halves.
const LEAF_RECORDS: usize = 64;

/// The memory-resident top level: the records in key order as an array
/// (what §II-A views L0 as), cut into leaves so that an insert moves one
/// leaf's records and not the table's (DESIGN.md §3).
#[derive(Debug, Default, Clone)]
pub struct Memtable {
    /// The records in key order; every leaf holds 1..=[`LEAF_RECORDS`].
    leaves: Vec<Vec<Record>>,
    /// `firsts[i] == leaves[i][0].key` — what a search runs over.
    firsts: Vec<Key>,
    /// Records in all leaves.
    len: usize,
}

/// The records of a [`Memtable`] with keys in a closed range, in key order
/// ([`Memtable::range`]).
#[derive(Debug, Clone)]
pub struct Range<'a> {
    /// What is left of the leaf the iterator is in, then the leaves after.
    leaf: std::slice::Iter<'a, Record>,
    rest: std::slice::Iter<'a, Vec<Record>>,
    hi: Key,
}

impl<'a> Iterator for Range<'a> {
    type Item = &'a Record;

    #[inline]
    fn next(&mut self) -> Option<&'a Record> {
        loop {
            if let Some(r) = self.leaf.next() {
                if r.key <= self.hi {
                    return Some(r);
                }
                self.rest = Default::default(); // past `hi`: through for good
            }
            self.leaf = self.rest.next()?.iter();
        }
    }
}

impl Memtable {
    /// Empty L0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records (tombstones included — they occupy L0 capacity).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when L0 holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The leaf `key` is in or would go into: the last whose first key is
    /// at most `key`, or leaf 0 for a key below every record.
    #[inline]
    fn leaf_of(&self, key: Key) -> usize {
        self.firsts.partition_point(|&first| first <= key).saturating_sub(1)
    }

    /// Apply one modification request (§II-A logging semantics).
    pub fn apply(&mut self, req: Request) {
        let record = match req {
            Request::Put(key, payload) => Record { key, op: OpKind::Put, payload },
            Request::Delete(key) => Record::delete(key),
        };
        let key = record.key;
        if self.leaves.is_empty() {
            self.leaves.push(Vec::with_capacity(LEAF_RECORDS));
            self.firsts.push(key);
        }
        let mut at = self.leaf_of(key);
        let mut pos = match self.leaves[at].binary_search_by_key(&key, |r| r.key) {
            Ok(pos) => {
                self.leaves[at][pos] = record;
                return;
            }
            Err(pos) => pos,
        };
        if self.leaves[at].len() == LEAF_RECORDS {
            // Split in halves; the record goes where its position falls.
            let mut upper = Vec::with_capacity(LEAF_RECORDS);
            upper.extend(self.leaves[at].drain(LEAF_RECORDS / 2..));
            self.firsts.insert(at + 1, upper[0].key);
            self.leaves.insert(at + 1, upper);
            if pos > LEAF_RECORDS / 2 {
                at += 1;
                pos -= LEAF_RECORDS / 2;
            }
        }
        self.leaves[at].insert(pos, record);
        if pos == 0 {
            self.firsts[at] = key;
        }
        self.len += 1;
    }

    /// Look up a key.
    pub fn get(&self, key: Key) -> Option<&Record> {
        let leaf = self.leaves.get(self.leaf_of(key))?;
        leaf.binary_search_by_key(&key, |r| r.key).ok().map(|pos| &leaf[pos])
    }

    /// Iterate the records with keys in `[lo, hi]` (none when `lo > hi`).
    pub fn range(&self, lo: Key, hi: Key) -> Range<'_> {
        if lo > hi || self.leaves.is_empty() {
            return Range { leaf: Default::default(), rest: Default::default(), hi };
        }
        let at = self.leaf_of(lo);
        let leaf = &self.leaves[at];
        let from = leaf.partition_point(|r| r.key < lo);
        Range { leaf: leaf[from..].iter(), rest: self.leaves[at + 1..].iter(), hi }
    }

    /// Iterate all records in key order.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.leaves.iter().flatten()
    }

    /// Chunk the current contents into virtual blocks of `b` records
    /// (the last chunk may be shorter). Policies select merge windows over
    /// these exactly as they select windows of physical blocks. Walks leaf
    /// lengths and reads two keys a chunk, not the records.
    pub fn virtual_blocks(&self, b: usize) -> Vec<RunMeta> {
        assert!(b > 0);
        let mut out = Vec::with_capacity(self.len.div_ceil(b));
        // The leaf a position falls in, and the records before that leaf;
        // positions are asked for in ascending order.
        let (mut leaf, mut before) = (0, 0);
        let mut key_at = |pos: usize| {
            while pos - before >= self.leaves[leaf].len() {
                before += self.leaves[leaf].len();
                leaf += 1;
            }
            self.leaves[leaf][pos - before].key
        };
        let mut start = 0;
        while start < self.len {
            let count = b.min(self.len - start);
            out.push(RunMeta {
                min: key_at(start),
                max: key_at(start + count - 1),
                count: count as u32,
            });
            start += count;
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
        out.extend(self.range(first.min, last.max).cloned());
        out
    }

    /// Remove `keys` (ascending) — a flushed window, or with every key the
    /// whole table. One pass over the leaves the keys span; a leaf it
    /// empties goes, and one it leaves records in joins the leaf before it
    /// when the two fit one leaf — which is how the two sides of the gap a
    /// window leaves become one leaf again.
    pub fn remove_keys(&mut self, keys: &[Key]) {
        if keys.len() == self.len {
            *self = Memtable::new();
            return;
        }
        let (Some(&lo), Some(&hi), false) = (keys.first(), keys.last(), self.is_empty()) else {
            return;
        };
        debug_assert!(keys.is_sorted(), "a window's keys are in order");
        let (from, to) = (self.leaf_of(lo), self.leaf_of(hi));
        let mut keys = keys.iter().copied().peekable();
        // `kept` is where the next leaf with records left goes.
        let mut kept = from;
        for at in from..=to {
            let mut leaf = std::mem::take(&mut self.leaves[at]);
            let was = leaf.len();
            leaf.retain(|r| {
                while keys.next_if(|&k| k < r.key).is_some() {}
                keys.next_if_eq(&r.key).is_none()
            });
            self.len -= was - leaf.len();
            if leaf.is_empty() {
                continue;
            }
            if kept > 0 && self.leaves[kept - 1].len() + leaf.len() <= LEAF_RECORDS {
                self.leaves[kept - 1].append(&mut leaf);
            } else {
                self.firsts[kept] = leaf[0].key;
                self.leaves[kept] = leaf;
                kept += 1;
            }
        }
        self.leaves.drain(kept..=to);
        self.firsts.drain(kept..=to);
    }

    /// Check the leaf structure: no empty leaf and none over 64 records,
    /// keys strictly ascending within and across leaves, `firsts` naming
    /// each leaf's first key, `len` their sum.
    pub fn validate(&self) -> Result<(), String> {
        if self.firsts.len() != self.leaves.len() {
            return Err(format!("{} firsts for {} leaves", self.firsts.len(), self.leaves.len()));
        }
        let mut prev: Option<Key> = None;
        for (i, (leaf, &first)) in self.leaves.iter().zip(&self.firsts).enumerate() {
            if leaf.is_empty() || leaf.len() > LEAF_RECORDS {
                return Err(format!("leaf {i} holds {} records", leaf.len()));
            }
            if leaf[0].key != first {
                return Err(format!("firsts[{i}] = {first}, leaf starts at {}", leaf[0].key));
            }
            for r in leaf {
                if prev.is_some_and(|p| p >= r.key) {
                    return Err(format!("key {} in leaf {i} is not above its predecessor", r.key));
                }
                prev = Some(r.key);
            }
        }
        let sum: usize = self.leaves.iter().map(Vec::len).sum();
        if sum != self.len {
            return Err(format!("len {} but the leaves hold {sum}", self.len));
        }
        Ok(())
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
        let mid: Vec<Key> = m.range(3, 7).map(|r| r.key).collect();
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
        m.remove_keys(&[1, 2]); // nothing there to remove
        assert!(m.is_empty());
    }

    #[test]
    fn leaves_split_when_full_and_fuse_across_a_removed_window() {
        let mut m = Memtable::new();
        // Descending, then ascending in between: inserts at the front and in
        // the middle of full leaves.
        for k in (0..400u64).rev().map(|k| k * 2).chain((0..400).map(|k| k * 2 + 1)) {
            m.apply(put(k));
            m.validate().unwrap();
        }
        assert_eq!(m.len(), 800);
        assert!(m.leaves.len() >= 800 / LEAF_RECORDS && m.leaves.iter().all(|l| l.len() >= 32));
        assert!(m.iter().map(|r| r.key).eq(0..800));
        assert_eq!(m.get(799).map(|r| r.key), Some(799));
        assert!(m.get(800).is_none());
        // A window over several leaves: what is left on its two sides ends
        // up in one leaf when that fits.
        let runs = m.virtual_blocks(36);
        let leaves_before = m.leaves.len();
        let keys: Vec<Key> = m.window(&runs[1..runs.len() - 1]).iter().map(|r| r.key).collect();
        m.remove_keys(&keys);
        m.validate().unwrap();
        assert_eq!(m.len(), 800 - keys.len());
        assert!(m.iter().map(|r| r.key).eq((0..36).chain(792..800)));
        assert_eq!(m.leaves.len(), 1, "from {leaves_before} leaves");
        // Keys the table does not hold are passed over.
        m.remove_keys(&[5, 6, 40, 41, 795, 9_000]);
        m.validate().unwrap();
        assert!(m.iter().map(|r| r.key).eq((0..5).chain(7..36).chain(792..795).chain(796..800)));
    }

    #[test]
    fn the_ends_of_a_gap_fuse_exactly_when_they_fit_a_leaf() {
        for (below, above, leaves) in [(32, 32, 1), (32, 33, 2), (1, 63, 1), (2, 63, 2), (0, 64, 1)]
        {
            let mut m = Memtable::new();
            (0..128).for_each(|k| m.apply(put(k)));
            assert_eq!(m.leaves.iter().map(Vec::len).collect::<Vec<_>>(), [32, 32, 64]);
            m.remove_keys(&(below..128 - above).collect::<Vec<Key>>());
            m.validate().unwrap();
            assert_eq!(m.leaves.len(), leaves, "{below} below the gap, {above} above");
            assert!(m.iter().map(|r| r.key).eq((0..below).chain(128 - above..128)));
        }
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
