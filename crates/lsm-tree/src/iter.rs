//! Range scans across all levels.
//!
//! A scan merges the memtable and every on-SSD level in key order, with
//! upper (newer) levels shadowing lower ones and tombstones hiding older
//! versions. Blocks are opened lazily through the buffer cache.

use std::sync::Arc;

use bytes::Bytes;

use crate::block::{BlockHandle, DataBlock};
use crate::error::Result;
use crate::record::{Key, OpKind, Record};
use crate::store::Store;
use crate::tree::LsmTree;

/// Cursor over the blocks of one level restricted to `[lo, hi]`.
struct LevelCursor<'a> {
    store: &'a Store,
    handles: &'a [BlockHandle],
    hpos: usize,
    current: Option<Arc<DataBlock>>,
    cpos: usize,
    lo: Key,
    hi: Key,
}

impl<'a> LevelCursor<'a> {
    fn new(store: &'a Store, handles: &'a [BlockHandle], lo: Key, hi: Key) -> Self {
        LevelCursor { store, handles, hpos: 0, current: None, cpos: 0, lo, hi }
    }

    /// Open blocks until positioned at the next in-range record (or end).
    fn settle(&mut self) -> Result<()> {
        loop {
            if let Some(block) = &self.current {
                if self.cpos < block.len() && block.key(self.cpos) <= self.hi {
                    return Ok(());
                }
                if self.cpos < block.len() {
                    // Past hi: exhausted.
                    self.hpos = self.handles.len();
                }
                self.current = None;
                self.cpos = 0;
                if self.hpos < self.handles.len() {
                    self.hpos += 1;
                }
                continue;
            }
            let Some(h) = self.handles.get(self.hpos) else { return Ok(()) };
            if h.min > self.hi {
                self.hpos = self.handles.len();
                return Ok(());
            }
            let block = self.store.read_block(h)?;
            // First record ≥ lo within the block.
            let start = block.lower_bound(self.lo);
            self.current = Some(block);
            self.cpos = start;
        }
    }

    fn peek(&mut self) -> Result<Option<Key>> {
        self.settle()?;
        Ok(self
            .current
            .as_ref()
            .filter(|b| self.cpos < b.len())
            .map(|b| b.key(self.cpos))
            .filter(|&k| k <= self.hi))
    }

    fn next_record(&mut self) -> Result<Record> {
        self.settle()?;
        let block = self.current.as_ref().expect("peek said Some");
        let r = block.record(self.cpos);
        self.cpos += 1;
        Ok(r)
    }
}

/// A lazy, ordered range scan over `[lo, hi]`.
pub struct RangeScan<'a> {
    mem: Vec<Record>,
    mem_pos: usize,
    cursors: Vec<LevelCursor<'a>>,
    done: bool,
}

impl<'a> RangeScan<'a> {
    /// Build a scan over `tree` for keys in `[lo, hi]` (empty when
    /// `lo > hi`).
    pub fn new(tree: &'a LsmTree, lo: Key, hi: Key) -> Self {
        if lo > hi {
            return RangeScan { mem: Vec::new(), mem_pos: 0, cursors: Vec::new(), done: true };
        }
        let mem: Vec<Record> = if tree.imm_count() == 0 {
            tree.memtable().range(lo, hi).cloned().collect()
        } else {
            // Fold sealed memtables oldest-first, then the active one, so
            // the newest version of each key survives the collapse.
            let mut merged = std::collections::BTreeMap::new();
            for imm in tree.imm_memtables() {
                for r in imm.range(lo, hi) {
                    merged.insert(r.key, r.clone());
                }
            }
            for r in tree.memtable().range(lo, hi) {
                merged.insert(r.key, r.clone());
            }
            merged.into_values().collect()
        };
        let cursors = tree
            .levels()
            .iter()
            .map(|lvl| {
                let range = lvl.overlap_indices(lo, hi);
                LevelCursor::new(tree.store(), &lvl.handles()[range], lo, hi)
            })
            .collect();
        RangeScan { mem, mem_pos: 0, cursors, done: false }
    }

    fn step(&mut self) -> Result<Option<(Key, Bytes)>> {
        loop {
            // Frontier: smallest key across the memtable and every level.
            let mut min_key: Option<Key> = self.mem.get(self.mem_pos).map(|r| r.key);
            for c in self.cursors.iter_mut() {
                if let Some(k) = c.peek()? {
                    min_key = Some(match min_key {
                        Some(m) => m.min(k),
                        None => k,
                    });
                }
            }
            let Some(key) = min_key else { return Ok(None) };

            // The newest version wins: memtable first, then levels top-down.
            let mut winner: Option<Record> = None;
            if self.mem.get(self.mem_pos).map(|r| r.key) == Some(key) {
                winner = Some(self.mem[self.mem_pos].clone());
                self.mem_pos += 1;
            }
            for c in self.cursors.iter_mut() {
                if c.peek()? == Some(key) {
                    let r = c.next_record()?;
                    if winner.is_none() {
                        winner = Some(r);
                    }
                }
            }
            let winner = winner.expect("some source produced the frontier key");
            match winner.op {
                OpKind::Put => return Ok(Some((winner.key, winner.payload))),
                OpKind::Delete => continue, // shadowed: try the next key
            }
        }
    }
}

impl Iterator for RangeScan<'_> {
    type Item = Result<(Key, Bytes)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.step() {
            Ok(Some(kv)) => Some(Ok(kv)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

impl LsmTree {
    /// Ordered scan of the live keys in `[lo, hi]`.
    pub fn scan(&self, lo: Key, hi: Key) -> RangeScan<'_> {
        RangeScan::new(self, lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LsmConfig;
    use crate::policy::PolicySpec;
    use crate::tree::TreeOptions;

    fn small_tree(policy: PolicySpec) -> LsmTree {
        let cfg = LsmConfig {
            block_size: 256,
            payload_size: 4,
            k0_blocks: 4,
            gamma: 4,
            cache_blocks: 64,
            merge_rate: 0.25,
            ..LsmConfig::default()
        };
        LsmTree::with_mem_device(cfg, TreeOptions::builder().policy(policy).build(), 1 << 16)
            .unwrap()
    }

    fn collect(scan: RangeScan<'_>) -> Vec<Key> {
        scan.map(|r| r.unwrap().0).collect()
    }

    #[test]
    fn scan_within_memtable_only() {
        let mut t = small_tree(PolicySpec::ChooseBest);
        for k in [5u64, 1, 9, 3] {
            t.put(k, vec![k as u8; 4]).unwrap();
        }
        assert_eq!(collect(t.scan(2, 8)), vec![3, 5]);
        assert_eq!(collect(t.scan(0, 100)), vec![1, 3, 5, 9]);
        assert_eq!(collect(t.scan(6, 8)), Vec::<Key>::new());
    }

    #[test]
    fn scan_across_levels_with_shadowing() {
        let mut t = small_tree(PolicySpec::ChooseBest);
        // Force data into levels.
        for k in 0..1000u64 {
            t.put(k * 3, vec![1; 4]).unwrap();
        }
        // Newer versions for a slice of keys (may still be in memtable).
        for k in 100..110u64 {
            t.put(k * 3, vec![2; 4]).unwrap();
        }
        let got: Vec<(Key, Bytes)> = t.scan(300, 327).map(|r| r.unwrap()).collect();
        assert_eq!(got.len(), 10);
        for (k, v) in got {
            assert_eq!(v[0], 2, "key {k} must show the newer version");
        }
    }

    #[test]
    fn scan_hides_deleted_keys() {
        let mut t = small_tree(PolicySpec::RoundRobin);
        for k in 0..500u64 {
            t.put(k, vec![0; 4]).unwrap();
        }
        for k in (0..500u64).step_by(2) {
            t.delete(k).unwrap();
        }
        let keys = collect(t.scan(0, 20));
        assert_eq!(keys, vec![1, 3, 5, 7, 9, 11, 13, 15, 17, 19]);
    }

    #[test]
    fn full_scan_matches_model() {
        let mut t = small_tree(PolicySpec::Full);
        let mut model = std::collections::BTreeSet::new();
        let mut state = 99u64;
        for _ in 0..3000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = (state >> 33) % 2000;
            if state.is_multiple_of(3) {
                t.delete(k).unwrap();
                model.remove(&k);
            } else {
                t.put(k, vec![7; 4]).unwrap();
                model.insert(k);
            }
        }
        let got = collect(t.scan(0, u64::MAX));
        let want: Vec<Key> = model.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_tree_scan() {
        let t = small_tree(PolicySpec::Full);
        assert_eq!(collect(t.scan(0, u64::MAX)), Vec::<Key>::new());
    }

    #[test]
    fn inverted_range_is_empty_not_panic() {
        let mut t = small_tree(PolicySpec::Full);
        t.put(5, vec![0; 4]).unwrap();
        assert_eq!(collect(t.scan(10, 2)), Vec::<Key>::new());
        assert_eq!(collect(t.scan(5, 5)), vec![5]);
    }
}
