//! On-SSD levels with relaxed storage (§II-B).
//!
//! A level is an ordered sequence of data blocks with pairwise-disjoint key
//! ranges. Unlike the original LSM-tree, blocks need not be physically
//! contiguous and need not be full; instead two waste constraints bound the
//! slop:
//!
//! * **Level-wise**: the fraction of empty record slots across the level is
//!   at most ε (for levels with at least two blocks).
//! * **Pairwise**: any two consecutive blocks store strictly more than `B`
//!   records in total.
//!
//! The level also carries the per-level merge bookkeeping used by the
//! block-preserving waste check: `m_i` (merges into this level since its
//! last compaction), the cumulative slack those merges have earned, and
//! `w_i` (the net increase in empty slots those merges have caused).
//!
//! # The search index
//!
//! A get asks each level one question — which block, if any, may hold this
//! key — and the handles are a poor place to look the answer up: 48 bytes
//! apart, each filter behind a pointer into an allocation of its own. So a
//! level keeps, beside its handles, everything that question needs in two
//! packed arrays: `fences[i]` is block `i`'s largest key (what the binary
//! search runs over, 8 bytes a block), and `slots` holds one fixed-size
//! slot per block — its smallest key, then its Bloom filter's words,
//! geometry word first, exactly as [`BloomFilter`](crate::BloomFilter)
//! stores them (a zero geometry word: this handle carries no filter, the
//! block is always a candidate). [`Level::probe`] reads those and touches
//! `handles[i]` only to hand out a candidate. The handle list has two
//! writers, [`Level::push`] and [`Level::apply`]; both write the index in
//! the same breath, and [`Level::validate`] checks it against the handles.

use crate::block::BlockHandle;
use crate::bloom;
use crate::record::Key;

/// Words of a slot before the filter's bits: the block's smallest key and
/// the filter's geometry word.
const SLOT_HEADER: usize = 2;

/// What a level's fences and filters say about one key.
#[derive(Debug, Clone, Copy)]
pub enum BlockProbe<'a> {
    /// The key lies in no block's range.
    NoBlock,
    /// It lies in one block's range, and that block's filter rules it out.
    FilteredOut,
    /// This block may hold it.
    Candidate(&'a BlockHandle),
}

/// One on-SSD level of the LSM-tree.
#[derive(Debug, Clone, Default)]
pub struct Level {
    handles: Vec<BlockHandle>,
    /// `handles[i].max`, packed.
    fences: Vec<Key>,
    /// [`stride`](Level::stride) words per block:
    /// `[min, geometry, filter bits…, 0…]`.
    slots: Vec<u64>,
    /// Words of filter bits a slot has room for: those of the largest
    /// filter the level has held.
    filter_bits_words: usize,
    records: u64,
    /// `m_i`: merges into this level since its last compaction.
    pub merges_since_compaction: u64,
    /// Cumulative slack earned: `Σ ε·(records merged in)` since compaction.
    /// Equals `m_i · ε·δ·K_{i-1}·B` when every merge brings the standard
    /// partial amount (§II-B).
    pub slack_budget: f64,
    /// `w_i`: net increase in empty record slots due to merges since the
    /// last compaction.
    pub waste_delta: i64,
    /// Round-robin policy cursor: largest key of the range last merged
    /// *out of* this level. Lives here so it travels with the level when
    /// the tree gains levels.
    pub rr_cursor: Option<Key>,
}

/// Words `handle` needs in a slot.
fn slot_need(handle: &BlockHandle) -> usize {
    handle.bloom.as_ref().map_or(SLOT_HEADER, |f| 1 + f.words().len())
}

impl Level {
    /// An empty level.
    pub fn new() -> Self {
        Self::default()
    }

    /// Words per slot.
    #[inline]
    fn stride(&self) -> usize {
        SLOT_HEADER + self.filter_bits_words
    }

    /// Block `idx`'s slot.
    #[inline]
    fn slot(&self, idx: usize) -> &[u64] {
        &self.slots[idx * self.stride()..(idx + 1) * self.stride()]
    }

    /// Number of data blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.handles.len()
    }

    /// Total records stored.
    #[inline]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// True when the level holds no blocks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// The fence entries, ordered by key.
    #[inline]
    pub fn handles(&self) -> &[BlockHandle] {
        &self.handles
    }

    /// Empty record slots across the level, given block capacity `b`.
    pub fn empty_slots(&self, b: usize) -> u64 {
        (self.handles.len() as u64) * (b as u64) - self.records
    }

    /// The level-wise waste factor: empty slots / total slots (0 for an
    /// empty level).
    pub fn waste_factor(&self, b: usize) -> f64 {
        let total = (self.handles.len() * b) as f64;
        if total == 0.0 {
            0.0
        } else {
            self.empty_slots(b) as f64 / total
        }
    }

    /// Smallest key in the level.
    pub fn min_key(&self) -> Option<Key> {
        self.handles.first().map(|h| h.min)
    }

    /// Largest key in the level.
    pub fn max_key(&self) -> Option<Key> {
        self.handles.last().map(|h| h.max)
    }

    /// Indices of the blocks whose key ranges intersect `[lo, hi]`.
    pub fn overlap_indices(&self, lo: Key, hi: Key) -> std::ops::Range<usize> {
        let start = self.fences.partition_point(|&max| max < lo);
        let end = self.handles.partition_point(|h| h.min <= hi);
        start..end.max(start)
    }

    /// The block whose key range contains `key`, if any (keys can fall in
    /// the gap between blocks). Fences only; a get wants [`Level::probe`].
    pub fn find_block_for(&self, key: Key) -> Option<&BlockHandle> {
        let idx = self.fences.partition_point(|&max| max < key);
        self.handles.get(idx).filter(|h| h.min <= key)
    }

    /// The one block a get for `key` has to read in this level, unless the
    /// fences or that block's filter already say there is none. Answered
    /// from the packed index alone.
    pub fn probe(&self, key: Key) -> BlockProbe<'_> {
        let idx = self.fences.partition_point(|&max| max < key);
        if idx == self.fences.len() {
            return BlockProbe::NoBlock;
        }
        let slot = self.slot(idx);
        if key < slot[0] {
            BlockProbe::NoBlock
        } else if slot[1] != 0 && !bloom::probe(&slot[1..], key) {
            BlockProbe::FilteredOut
        } else {
            BlockProbe::Candidate(&self.handles[idx])
        }
    }

    /// Could `key` be stored in this level? (Fence check only.)
    pub fn key_in_range_of_some_block(&self, key: Key) -> bool {
        self.find_block_for(key).is_some()
    }

    /// Append one handle at the end (bulk-load path). The handle's range
    /// must lie entirely after the current maximum.
    pub fn push(&mut self, handle: BlockHandle) {
        debug_assert!(self.max_key().is_none_or(|mx| mx < handle.min));
        self.records += u64::from(handle.count);
        let at = self.handles.len();
        self.splice_index(at..at, std::slice::from_ref(&handle));
        self.handles.push(handle);
    }

    /// Install `edit` — built against this level by a [`LevelDraft`] — as
    /// one splice plus the bookkeeping it carries.
    pub(crate) fn apply(&mut self, edit: LevelEdit) {
        self.splice_index(edit.range.clone(), &edit.insert);
        self.handles.splice(edit.range, edit.insert);
        self.records = edit.records;
        self.merges_since_compaction = edit.merges_since_compaction;
        self.slack_budget = edit.slack_budget;
        self.waste_delta = edit.waste_delta;
        self.rr_cursor = edit.rr_cursor;
    }

    /// The index's half of a splice of `handles`: entries `range` give way
    /// to those of `with`. Slots widen first if a filter of `with` needs it.
    fn splice_index(&mut self, range: std::ops::Range<usize>, with: &[BlockHandle]) {
        let (stride, need) = (self.stride(), with.iter().map(slot_need).max().unwrap_or(0));
        if need > stride {
            let mut wider = vec![0u64; self.handles.len() * need];
            for (old, new) in self.slots.chunks_exact(stride).zip(wider.chunks_exact_mut(need)) {
                new[..stride].copy_from_slice(old);
            }
            (self.slots, self.filter_bits_words) = (wider, need - SLOT_HEADER);
        }
        let stride = self.stride();
        // Make room with zeros, then pack in place. Staging the slots in a
        // buffer of their own first was measured on `ingest` at 8 µs a step
        // for that 2.5 KB allocation, against 5 µs for all three splices.
        let at = range.start * stride;
        self.slots.splice(at..range.end * stride, std::iter::repeat_n(0, with.len() * stride));
        for (slot, h) in self.slots[at..].chunks_exact_mut(stride).zip(with) {
            slot[0] = h.min;
            if let Some(filter) = &h.bloom {
                slot[1..=filter.words().len()].copy_from_slice(filter.words());
            }
        }
        self.fences.splice(range, with.iter().map(|h| h.max));
    }

    /// What the index holds for block `idx`: largest key, smallest key and
    /// the filter's words (`None`: the no-filter marker), padding left off.
    fn index_entry(&self, idx: usize) -> (Key, Key, Option<&[u64]>) {
        let slot = self.slot(idx);
        let filter =
            (slot[1] != 0).then(|| &slot[1..(1 + bloom::len_in_words(slot[1])).min(slot.len())]);
        (self.fences[idx], slot[0], filter)
    }

    /// Check all structural invariants; returns a description of the first
    /// violation. `b` is block capacity, `eps` the maximum waste factor.
    pub fn validate(&self, b: usize, eps: f64) -> std::result::Result<(), String> {
        let n = self.handles.len();
        if self.fences.len() != n || self.slots.len() != n * self.stride() {
            return Err(format!(
                "search index drift: {n} blocks, {} fences, {} slot words at stride {}",
                self.fences.len(),
                self.slots.len(),
                self.stride()
            ));
        }
        let mut records: u64 = 0;
        for (i, h) in self.handles.iter().enumerate() {
            if self.index_entry(i) != (h.max, h.min, h.bloom.as_ref().map(|f| f.words())) {
                return Err(format!("search index drift at block {i} [{},{}]", h.min, h.max));
            }
            if h.count == 0 {
                return Err(format!("block {i} is empty"));
            }
            if h.min > h.max {
                return Err(format!("block {i} has min {} > max {}", h.min, h.max));
            }
            if h.count as usize > b {
                return Err(format!("block {i} overfull: {} > B={b}", h.count));
            }
            if i > 0 {
                let prev = &self.handles[i - 1];
                if prev.max >= h.min {
                    return Err(format!(
                        "blocks {} and {i} overlap: [{},{}] then [{},{}]",
                        i - 1,
                        prev.min,
                        prev.max,
                        h.min,
                        h.max
                    ));
                }
                // Pairwise waste constraint (§II-B).
                if (prev.count as usize) + (h.count as usize) <= b {
                    return Err(format!(
                        "pairwise waste violated at blocks {}/{}: {}+{} <= B={b}",
                        i - 1,
                        i,
                        prev.count,
                        h.count
                    ));
                }
            }
            records += u64::from(h.count);
        }
        if records != self.records {
            return Err(format!("record count drift: cached {} vs actual {records}", self.records));
        }
        // Level-wise waste constraint — except when the level already uses
        // the minimal possible number of blocks, where no compaction could
        // reduce waste any further (tiny levels of a few blocks).
        let minimal_blocks = (self.records as usize).div_ceil(b.max(1));
        if self.handles.len() >= 2
            && self.handles.len() > minimal_blocks
            && self.waste_factor(b) > eps + 1e-9
        {
            return Err(format!("level-wise waste {:.4} exceeds eps {eps}", self.waste_factor(b)));
        }
        Ok(())
    }
}

/// One level's share of a maintenance step's outcome: `handles[range]` is
/// replaced by `insert` and the bookkeeping takes the values carried here.
/// Always one contiguous splice — a merge rewrites one key range, and a
/// seam fix or compaction only ever widens it.
#[derive(Debug)]
pub(crate) struct LevelEdit {
    range: std::ops::Range<usize>,
    insert: Vec<BlockHandle>,
    records: u64,
    pub(crate) merges_since_compaction: u64,
    pub(crate) slack_budget: f64,
    pub(crate) waste_delta: i64,
    pub(crate) rr_cursor: Option<Key>,
}

/// An immutable level read *through* an edit in progress: what the merge
/// engine works on, so a step never copies (or locks) the level it plans
/// to change. Indices are those the level will have once the edit is
/// [applied](Level::apply).
pub(crate) struct LevelDraft<'a> {
    base: &'a Level,
    pub(crate) edit: LevelEdit,
}

impl<'a> LevelDraft<'a> {
    /// `base`, unedited.
    pub(crate) fn new(base: &'a Level) -> Self {
        let edit = LevelEdit {
            range: 0..0,
            insert: Vec::new(),
            records: base.records,
            merges_since_compaction: base.merges_since_compaction,
            slack_budget: base.slack_budget,
            waste_delta: base.waste_delta,
            rr_cursor: base.rr_cursor,
        };
        LevelDraft { base, edit }
    }

    /// The level underneath, without the edit.
    pub(crate) fn base(&self) -> &'a Level {
        self.base
    }

    pub(crate) fn num_blocks(&self) -> usize {
        self.base.handles.len() - self.edit.range.len() + self.edit.insert.len()
    }

    pub(crate) fn records(&self) -> u64 {
        self.edit.records
    }

    pub(crate) fn get(&self, idx: usize) -> &BlockHandle {
        let (start, inserted) = (self.edit.range.start, self.edit.insert.len());
        if idx < start {
            &self.base.handles[idx]
        } else if idx < start + inserted {
            &self.edit.insert[idx - start]
        } else {
            &self.base.handles[idx - inserted + self.edit.range.len()]
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &BlockHandle> {
        let e = &self.edit;
        self.base.handles[..e.range.start]
            .iter()
            .chain(&e.insert)
            .chain(&self.base.handles[e.range.end..])
    }

    /// Replace blocks `view` (in edited indices) by `with`. `view` must
    /// overlap or touch what the edit already replaced, so the edit stays
    /// one splice.
    pub(crate) fn replace(&mut self, view: std::ops::Range<usize>, with: Vec<BlockHandle>) {
        let removed: u64 = view.clone().map(|i| u64::from(self.get(i).count)).sum();
        let added: u64 = with.iter().map(|h| u64::from(h.count)).sum();
        let e = &mut self.edit;
        if e.range.is_empty() && e.insert.is_empty() {
            e.range = view.start..view.start;
        }
        let (ins_start, ins_end) = (e.range.start, e.range.start + e.insert.len());
        debug_assert!(view.start <= ins_end && view.end >= ins_start, "edit would split in two");
        let lo = view.start.max(ins_start) - ins_start;
        let hi = view.end.min(ins_end) - ins_start;
        e.insert.splice(lo..hi, with);
        e.range.start -= ins_start.saturating_sub(view.start);
        e.range.end += view.end.saturating_sub(ins_end);
        e.records = e.records - removed + added;
    }

    /// The finished edit, detached from the level it was drafted on.
    pub(crate) fn finish(self) -> LevelEdit {
        self.edit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bloom::BloomFilter;
    use sim_ssd::BlockId;

    fn h(id: u64, min: Key, max: Key, count: u32) -> BlockHandle {
        BlockHandle { id: BlockId(id), min, max, count, tombstones: 0, bloom: None }
    }

    fn sample_level() -> Level {
        // B = 4; blocks: [0,9]x4 [10,19]x3 [25,30]x4
        let mut l = Level::new();
        l.push(h(0, 0, 9, 4));
        l.push(h(1, 10, 19, 3));
        l.push(h(2, 25, 30, 4));
        l
    }

    #[test]
    fn accounting_basics() {
        let l = sample_level();
        assert_eq!(l.num_blocks(), 3);
        assert_eq!(l.records(), 11);
        assert_eq!(l.empty_slots(4), 1);
        assert!((l.waste_factor(4) - 1.0 / 12.0).abs() < 1e-9);
        assert_eq!(l.min_key(), Some(0));
        assert_eq!(l.max_key(), Some(30));
    }

    #[test]
    fn empty_level_edge_cases() {
        let l = Level::new();
        assert!(l.is_empty());
        assert_eq!(l.waste_factor(4), 0.0);
        assert_eq!(l.min_key(), None);
        assert_eq!(l.overlap_indices(0, 100), 0..0);
        assert!(l.find_block_for(5).is_none());
        assert!(l.validate(4, 0.2).is_ok());
    }

    #[test]
    fn overlap_indices_cases() {
        let l = sample_level();
        assert_eq!(l.overlap_indices(0, 30), 0..3);
        assert_eq!(l.overlap_indices(5, 12), 0..2);
        assert_eq!(l.overlap_indices(20, 24), 2..2, "gap: empty range at insert position 2");
        assert_eq!(l.overlap_indices(19, 25), 1..3);
        assert_eq!(l.overlap_indices(31, 99), 3..3);
        assert_eq!(l.overlap_indices(26, 26), 2..3);
    }

    #[test]
    fn find_block_for_key() {
        let l = sample_level();
        assert_eq!(l.find_block_for(0).unwrap().id, BlockId(0));
        assert_eq!(l.find_block_for(19).unwrap().id, BlockId(1));
        assert!(l.find_block_for(22).is_none(), "gap");
        assert!(l.find_block_for(99).is_none());
        assert!(l.key_in_range_of_some_block(27));
        assert!(!l.key_in_range_of_some_block(20));
    }

    /// What a draft shows and what applying its edit leaves must both equal
    /// the same replacements made on a plain vector.
    #[test]
    fn draft_reads_and_applies_like_the_vector_it_edits() {
        // New blocks come with no filter, a one-word one and a four-word one
        // in turn, so slots have to widen mid-case and hold mixed sizes.
        let fresh = |id: u64| {
            let keys: Vec<Key> = (0..[0, 1, 20][id as usize % 3]).map(|k| 1_000 + id + k).collect();
            let bloom = (!keys.is_empty()).then(|| BloomFilter::build(&keys, 10));
            BlockHandle { bloom, ..h(100 + id, 1_000 + id, 1_000 + id, 2) }
        };
        // Each case: replacements as (edited-index range, number of new blocks).
        let cases: [&[(std::ops::Range<usize>, u64)]; 6] = [
            &[(1..2, 0), (0..2, 1)],            // remove, then fuse across the hole
            &[(1..1, 2), (0..2, 1), (1..3, 1)], // insert, fix front seam, fix back seam
            &[(3..3, 1), (2..4, 1)],            // append, fuse with the old tail
            &[(0..3, 0)],                       // everything out
            &[(1..2, 3), (0..5, 2)],            // rewrite, then compact the lot
            &[(2..2, 0), (1..3, 1)],            // empty merge, seam fused anyway
        ];
        for case in cases {
            let base = sample_level();
            let mut model: Vec<BlockHandle> = base.handles().to_vec();
            let mut draft = LevelDraft::new(&base);
            let mut next = 0;
            for (view, n) in case {
                let with: Vec<BlockHandle> = (0..*n)
                    .map(|_| {
                        next += 1;
                        fresh(next)
                    })
                    .collect();
                model.splice(view.clone(), with.clone());
                draft.replace(view.clone(), with);
                assert!(draft.iter().map(|h| h.id).eq(model.iter().map(|h| h.id)), "{case:?}");
                assert_eq!(draft.num_blocks(), model.len());
                for (i, m) in model.iter().enumerate() {
                    assert_eq!(draft.get(i).id, m.id, "{case:?} index {i}");
                }
                let records: u64 = model.iter().map(|h| u64::from(h.count)).sum();
                assert_eq!(draft.records(), records, "{case:?}");
            }
            draft.edit.waste_delta = 7;
            draft.edit.rr_cursor = Some(9);
            let edit = draft.finish();
            let mut applied = base.clone();
            applied.apply(edit);
            assert_eq!(
                applied.handles().iter().map(|h| h.id).collect::<Vec<_>>(),
                model.iter().map(|h| h.id).collect::<Vec<_>>(),
                "{case:?}"
            );
            assert_eq!(applied.records(), model.iter().map(|h| u64::from(h.count)).sum::<u64>());
            assert_eq!((applied.waste_delta, applied.rr_cursor), (7, Some(9)));
            // The index that was spliced along equals one packed from scratch.
            let mut rebuilt = Level::new();
            rebuilt.splice_index(0..0, applied.handles());
            assert_eq!(index_of(&applied), index_of(&rebuilt), "{case:?}");
            assert_eq!(index_of(&applied).len(), model.len());
        }
    }

    fn index_of(level: &Level) -> Vec<(Key, Key, Option<&[u64]>)> {
        (0..level.fences.len()).map(|i| level.index_entry(i)).collect()
    }

    #[test]
    fn probe_answers_from_fences_and_filters() {
        let filtered = |id: u64, keys: &[Key]| BlockHandle {
            bloom: Some(BloomFilter::build(keys, 10)),
            ..h(id, keys[0], keys[keys.len() - 1], keys.len() as u32)
        };
        let mut l = Level::new();
        l.push(filtered(0, &[10, 12, 14, 19]));
        l.push(h(1, 30, 39, 4)); // no filter: every key in range is a candidate
        l.push(filtered(2, &[50, 51, 58, 59]));
        let id = |p: BlockProbe| match p {
            BlockProbe::Candidate(h) => Some(h.id.raw()),
            _ => None,
        };
        for (key, want) in [(10, 0), (19, 0), (30, 1), (35, 1), (39, 1), (58, 2)] {
            assert_eq!(id(l.probe(key)), Some(want), "key {key}");
        }
        for gap in [0, 9, 20, 29, 40, 49, 60, u64::MAX] {
            assert!(matches!(l.probe(gap), BlockProbe::NoBlock), "key {gap}");
            assert!(l.find_block_for(gap).is_none());
        }
        // In range and absent: the filter's word, whichever it is, is the
        // handle's own filter's.
        for key in [11, 13, 15, 16, 17, 18, 52, 53, 54, 55, 56, 57] {
            let handle = l.find_block_for(key).expect("in range");
            let says_yes = handle.bloom.as_ref().unwrap().may_contain(key);
            match l.probe(key) {
                BlockProbe::Candidate(c) => assert!(says_yes && c.id == handle.id, "key {key}"),
                BlockProbe::FilteredOut => assert!(!says_yes, "key {key}"),
                BlockProbe::NoBlock => panic!("key {key} is in a block's range"),
            }
        }
        assert!(l.validate(4, 0.5).is_ok());
    }

    #[test]
    fn validate_reports_a_drifted_index() {
        let filter = BloomFilter::build(&[10, 19], 10);
        let mut l = sample_level();
        l.handles[1].bloom = Some(filter.clone());
        let err = l.validate(4, 0.5).unwrap_err();
        assert!(err.contains("search index drift at block 1"), "{err}");

        let mut l = sample_level();
        l.handles[2].min = 24;
        assert!(l.validate(4, 0.5).unwrap_err().contains("search index drift at block 2"));

        let mut l = sample_level();
        l.fences[0] = 8;
        assert!(l.validate(4, 0.5).unwrap_err().contains("search index drift at block 0"));

        let mut l = sample_level();
        l.fences.pop();
        assert!(l.validate(4, 0.5).unwrap_err().contains("search index drift: 3 blocks, 2 fences"));

        // A filter in the index that is not the handle's.
        let mut l = Level::new();
        l.push(BlockHandle { bloom: Some(filter), ..h(0, 10, 19, 2) });
        l.slots[2] ^= 1;
        assert!(l.validate(4, 0.5).unwrap_err().contains("search index drift at block 0"));
    }

    #[test]
    fn validate_catches_overlap() {
        let mut l = Level::new();
        l.push(h(0, 0, 10, 4));
        // push would debug-assert, so build the violation directly:
        let overlapping = h(1, 5, 20, 4);
        l.splice_index(1..1, std::slice::from_ref(&overlapping));
        l.handles.push(overlapping);
        l.records += 4;
        assert!(l.validate(4, 0.2).unwrap_err().contains("overlap"));
    }

    #[test]
    fn validate_catches_pairwise_waste() {
        let mut l = Level::new();
        l.push(h(0, 0, 10, 2));
        l.push(h(1, 11, 20, 2));
        let err = l.validate(4, 0.5).unwrap_err();
        assert!(err.contains("pairwise"), "{err}");
    }

    #[test]
    fn validate_catches_level_waste() {
        // B = 4, counts [4,1,4,1,4]: waste 6/20 = 0.3 > 0.2, pairwise holds
        // (4+1 > 4), and 5 blocks exceed the minimal ceil(14/4) = 4.
        let mut l = Level::new();
        for (i, c) in [4u32, 1, 4, 1, 4].into_iter().enumerate() {
            let base = (i as Key) * 100;
            l.push(h(i as u64, base, base + 50, c));
        }
        let err = l.validate(4, 0.2).unwrap_err();
        assert!(err.contains("level-wise"), "{err}");
    }

    #[test]
    fn minimal_block_count_is_exempt_from_level_waste() {
        // 2 blocks of 3 records each with B = 4: waste 0.25 > 0.2, but
        // ceil(6/4) = 2 blocks is already minimal — compaction cannot help.
        let mut l = Level::new();
        l.push(h(0, 0, 10, 3));
        l.push(h(1, 11, 20, 3));
        assert!(l.validate(4, 0.2).is_ok());
    }

    #[test]
    fn single_block_level_is_exempt_from_level_waste() {
        let mut l = Level::new();
        l.push(h(0, 0, 10, 1));
        assert!(l.validate(4, 0.2).is_ok());
    }
}
