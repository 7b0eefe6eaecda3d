//! The one ordered merge, and the one walk down a sequence of levels
//! (DESIGN.md §18).
//!
//! Every reader that combines ordered inputs does it with [`Merge`]: a
//! range scan (memtables and levels), a sharded scan (what each shard
//! returned), a Stepped-Merge merge (the runs of a level). Sources are
//! listed newest first; of those at the smallest key the first gives the
//! record and the others' versions are dropped. Tombstones come out like
//! any record — whether they still hide something further down is the
//! consumer's to know; [`RangeScan`] is the consumer that wants none.
//! Every point lookup is [`lookup`].

use std::sync::Arc;

use bytes::Bytes;

use crate::block::{BlockHandle, DataBlock};
use crate::error::Result;
use crate::level::{BlockProbe, Level};
use crate::memtable::{self, Memtable};
use crate::record::{Key, Record};
use crate::stats::TreeStats;
use crate::store::{CachedRow, Store, WalkCost};
use crate::tree::LsmTree;

/// What a reader sees of `key`: the value of its newest version — the
/// first found in `memtables`, then `levels`, each listed newest first —
/// unless that is a tombstone. Counted in `stats`, if given.
///
/// Caching contract: after the memtables, a row the store kept for `key`
/// at `epoch` — the install count the levels stand at, which the caller's
/// lock holds still for the whole call — answers for the levels with what
/// the walk that kept it found ([`Store::cached_row`]). Only without one are
/// the levels walked: at most one block a level is asked for the key's
/// record through the cache ([`Store::read_record`]), where a row kept at
/// an earlier epoch answers for the block it was read from if the walk
/// reaches that block, and a walk that ends in a pressed miss keeps its
/// row. Either way the lookup is charged the walk's blocks and Bloom skips,
/// so what the cache held changes no count. Writes need nothing from this:
/// they reach only the memtables, which are asked first.
pub(crate) fn lookup<'a>(
    memtables: impl IntoIterator<Item = &'a Memtable>,
    store: &Store,
    levels: impl IntoIterator<Item = &'a Level>,
    epoch: u64,
    key: Key,
    stats: Option<&TreeStats>,
) -> Result<Option<Bytes>> {
    stats.inspect(|s| s.note_lookup());
    if let Some(r) = memtables.into_iter().find_map(|mem| mem.get(key)) {
        return Ok(r.clone().into_value());
    }
    let charge = |cost: WalkCost| {
        stats.inspect(|s| s.note_lookup_costs(cost.block_reads.into(), cost.bloom_skips.into()));
    };
    let earlier = match store.cached_row(epoch, key) {
        CachedRow::Current(record, cost) => {
            charge(cost);
            return Ok(record.into_value());
        }
        CachedRow::Earlier(block) => Some(block),
        CachedRow::Absent => None,
    };
    let (mut found, mut cost) = (None, WalkCost::default());
    for level in levels {
        match level.probe(key) {
            BlockProbe::NoBlock => {}
            BlockProbe::FilteredOut => cost.bloom_skips += 1,
            BlockProbe::Candidate(handle) => {
                cost.block_reads += 1;
                found = store.read_record(handle, key, epoch, cost, earlier)?;
                if found.is_some() {
                    break;
                }
            }
        }
    }
    charge(cost);
    Ok(found.and_then(Record::into_value))
}

/// One ordered input of a [`Merge`].
pub(crate) enum Source<'a> {
    /// A key range of a memtable.
    Mem(memtable::Range<'a>),
    /// Blocks with ascending, disjoint key ranges — a level or a stepped
    /// run — each read through the cache when the source reaches it.
    Blocks {
        store: &'a Store,
        handles: std::slice::Iter<'a, BlockHandle>,
        /// The block the source is in, and its position there.
        at: Option<(Arc<DataBlock>, usize)>,
        lo: Key,
        hi: Key,
    },
    /// Pairs already scanned out of something: ordered, every one a put.
    Owned(std::vec::IntoIter<(Key, Bytes)>),
}

impl<'a> Source<'a> {
    /// The records of `handles` with keys in `[lo, hi]`.
    pub(crate) fn blocks(store: &'a Store, handles: &'a [BlockHandle], lo: Key, hi: Key) -> Self {
        Source::Blocks { store, handles: handles.iter(), at: None, lo, hi }
    }

    /// The next record, or `None` once the source is through.
    #[inline(always)]
    fn next(&mut self) -> Result<Option<Record>> {
        match self {
            Source::Mem(range) => Ok(range.next().cloned()),
            Source::Owned(pairs) => Ok(pairs.next().map(|(key, value)| Record::put(key, value))),
            Source::Blocks { store, handles, at, lo, hi } => loop {
                if let Some((block, pos)) = at {
                    if *pos < block.len() {
                        if block.key(*pos) > *hi {
                            return Ok(None); // and stays here: no later block is read
                        }
                        *pos += 1;
                        return Ok(Some(block.record(*pos - 1)));
                    }
                }
                let Some(handle) = handles.next() else { return Ok(None) };
                let block = store.read_block(handle)?;
                let pos = block.lower_bound(*lo);
                *at = Some((block, pos));
            },
        }
    }
}

/// The ordered merge of `sources`, which are listed newest first (see the
/// module docs): one record per distinct key, tombstones included. Ends
/// after the first error.
pub(crate) struct Merge<'a> {
    sources: Vec<Source<'a>>,
    /// The record each source is at, once the first step has asked them
    /// all, in order; a source is asked for its next when its head is taken.
    heads: Vec<Option<Record>>,
}

impl<'a> Merge<'a> {
    pub(crate) fn new(sources: Vec<Source<'a>>) -> Self {
        Merge { heads: Vec::with_capacity(sources.len()), sources }
    }

    #[inline]
    fn step(&mut self) -> Result<Option<Record>> {
        for source in &mut self.sources[self.heads.len()..] {
            self.heads.push(source.next()?);
        }
        // The frontier: the smallest key any source is at, and the first
        // source at it.
        let mut front: Option<(Key, usize)> = None;
        for (i, head) in self.heads.iter().enumerate() {
            if let Some(r) = head {
                if front.is_none_or(|(smallest, _)| r.key < smallest) {
                    front = Some((r.key, i));
                }
            }
        }
        let Some((key, newest)) = front else { return Ok(None) };
        let record = std::mem::replace(&mut self.heads[newest], self.sources[newest].next()?);
        for (head, source) in self.heads.iter_mut().zip(&mut self.sources).skip(newest + 1) {
            if head.as_ref().is_some_and(|older| older.key == key) {
                *head = source.next()?;
            }
        }
        Ok(record)
    }
}

impl Iterator for Merge<'_> {
    type Item = Result<Record>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let step = self.step();
        if step.is_err() {
            self.sources.clear();
            self.heads.clear();
        }
        step.transpose()
    }
}

/// A lazy, ordered range scan: a [`Merge`] without its tombstones.
pub struct RangeScan<'a>(pub(crate) Merge<'a>);

impl Iterator for RangeScan<'_> {
    type Item = Result<(Key, Bytes)>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        // The next record that is not a tombstone, as its key and value.
        self.0.find_map(|r| r.map(|r| Some(r.key).zip(r.into_value())).transpose())
    }
}

impl LsmTree {
    /// Ordered scan of the live keys in `[lo, hi]` (none when `lo > hi`):
    /// the live memtable, each sealed one and each level, merged. Blocks
    /// are opened lazily through the buffer cache.
    pub fn scan(&self, lo: Key, hi: Key) -> RangeScan<'_> {
        if lo > hi {
            return RangeScan(Merge::new(Vec::new()));
        }
        // Memtables oldest to newest, turned round; then the levels top-down.
        let mut sources: Vec<Source<'_>> = self
            .imm_memtables()
            .chain([self.memtable()])
            .map(|mem| Source::Mem(mem.range(lo, hi)))
            .collect();
        sources.reverse();
        sources.extend(self.levels().iter().map(|level| {
            let handles = &level.handles()[level.overlap_indices(lo, hi)];
            Source::blocks(self.store(), handles, lo, hi)
        }));
        RangeScan(Merge::new(sources))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Request;

    fn mem_of(reqs: &[Request]) -> Memtable {
        let mut mem = Memtable::new();
        reqs.iter().cloned().for_each(|req| mem.apply(req));
        mem
    }

    fn put(key: Key, v: u8) -> Request {
        Request::Put(key, Bytes::from(vec![v; 4]))
    }

    #[test]
    fn the_newest_source_at_a_key_gives_its_record_tombstones_included() {
        let store = Store::in_memory(64, 256, 8);
        let run: Vec<BlockHandle> = [1u64..4, 4..9]
            .map(|keys| store.write_block(keys.map(|k| Record::put(k, vec![2u8; 4])).collect()))
            .into_iter()
            .collect::<Result<_>>()
            .unwrap();
        let newest = mem_of(&[Request::Delete(2), put(5, 1), Request::Delete(20)]);
        let oldest = vec![(2, Bytes::from(vec![3u8; 4])), (5, Bytes::from(vec![3u8; 4]))];
        let sources = || {
            vec![
                Source::Mem(newest.range(0, Key::MAX)),
                Source::blocks(&store, &run, 0, Key::MAX),
                Source::Owned(oldest.clone().into_iter()),
            ]
        };
        // One record a key, from the first source that has it.
        let merged: Vec<(Key, Option<u8>)> = Merge::new(sources())
            .map(|r| r.map(|r| (r.key, r.into_value().map(|v| v[0]))).unwrap())
            .collect();
        let twos = |keys: std::ops::Range<Key>| keys.map(|k| (k, Some(2)));
        let mut want = vec![(1, Some(2)), (2, None), (3, Some(2)), (4, Some(2)), (5, Some(1))];
        want.extend(twos(6..9).chain([(20, None)]));
        assert_eq!(merged, want);
        // A scan is that without the tombstones.
        let live: Vec<Key> = RangeScan(Merge::new(sources())).map(|kv| kv.unwrap().0).collect();
        assert_eq!(live, [1, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn a_block_source_keeps_to_its_bounds_and_reads_no_block_past_them() {
        let store = Store::in_memory(64, 256, 8);
        let run: Vec<BlockHandle> = [10u64..14, 14..18, 18..22]
            .map(|keys| store.write_block(keys.map(|k| Record::put(k, vec![0u8; 4])).collect()))
            .into_iter()
            .collect::<Result<_>>()
            .unwrap();
        let keys = |lo, hi| -> Vec<Key> {
            Merge::new(vec![Source::blocks(&store, &run, lo, hi)]).map(|r| r.unwrap().key).collect()
        };
        assert_eq!(keys(0, Key::MAX), (10..22).collect::<Vec<_>>());
        assert_eq!(keys(12, 18), (12..19).collect::<Vec<_>>());
        assert_eq!(keys(13, 13), [13]);
        assert_eq!(keys(22, Key::MAX), Vec::<Key>::new());
        let lookups = |s: &Store| s.cache_stats().hits + s.cache_stats().misses;
        let before = lookups(&store);
        assert_eq!(keys(0, 15), (10..16).collect::<Vec<_>>());
        assert_eq!(lookups(&store) - before, 2, "the third block is past `hi`");
    }
}
