//! The tree's private view of the storage substrate: allocation + codec +
//! caching in one place.
//!
//! Every data-block write in the whole index is a finished frame
//! ([`crate::block::FrameBuilder`]) passing through the store's one admit
//! sequence — [`Store::write_frame`] or a [`WriteBatch`] — so the device's
//! write counter is exactly the paper's cost metric. Reads come in three
//! kinds: [`Store::read_block`] caches the block it fetches (scans),
//! [`Store::read_record`] wants one record of a block and, when the cache
//! has no room for the block, keeps only that record as the row of the
//! level walk that read it (gets), and [`Store::read_retiring`] caches
//! nothing (merge and compaction inputs, which the reading step frees).
//! Each of them reads one block: a merge opens an input block when its
//! stream reaches it, never ahead, so adopting a block costs no read.
//!
//! The buffer cache is one [`SieveCache`] under one byte budget,
//! `cache_blocks × block_size`, holding two kinds of entry: a whole block,
//! charged its frame's `block_size`, and a row — what a level walk found of
//! one key while the levels stood at one install count, and which block
//! it found it in — charged its payload plus [`RECORD_ENTRY_OVERHEAD`]
//! (DESIGN.md §17.1). It is the readers' cache (paper §V): who inserts
//! what, and how —
//!
//! | who                                   | inserts          | how                               |
//! |---------------------------------------|------------------|-----------------------------------|
//! | a flush or merge (`admit`)            | the block        | into room only                    |
//! | a scan (`read_block`)                 | the block missed | by eviction                       |
//! | a get (`read_record`)                 | the block missed | into room; else its row, evicting |
//! | merge inputs, seams (`read_retiring`) | nothing          | —                                 |
//!
//! The store is also where device failures are absorbed:
//!
//! * **Transient errors** ([`sim_ssd::DeviceError::is_transient`]) are
//!   retried with bounded exponential backoff ([`RetryPolicy`]); each retry
//!   emits [`observe::Event::RetryAttempt`].
//! * **Corruption** (device-level ECC [`sim_ssd::DeviceError::Corrupt`] or
//!   a block-checksum mismatch caught by the codec) quarantines the block:
//!   its id is never freed or reused, the failure surfaces as
//!   [`LsmError::Degraded`] naming the lost key range, and a later merge
//!   drops the block from its level (*read repair*).
//! * **Checkpoint-referenced blocks are never trimmed early**: blocks the
//!   last durable manifest references stay protected — a logical free is
//!   deferred until the next manifest rename succeeds, so a power cut
//!   between a device sync and the manifest rename can always recover from
//!   the old manifest.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use observe::{Event, SinkCell};
use parking_lot::Mutex;

use sim_ssd::{BlockAllocator, BlockDevice, BlockId, MemDevice, SieveCache};

use crate::block::{BlockHandle, DataBlock, FrameBuilder};
use crate::bloom::BloomFilter;
use crate::error::{LsmError, Result};
use crate::lockorder;
use crate::record::{Key, OpKind, Record};

/// Bounded retry-with-backoff for transient device errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before retry `n` (1-based) is `base_backoff_us << (n-1)`
    /// microseconds. Zero disables sleeping (tests).
    pub base_backoff_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, base_backoff_us: 50 }
    }
}

impl RetryPolicy {
    /// No retries at all: every device error surfaces immediately.
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, base_backoff_us: 0 }
    }
}

/// What a row is charged on top of its payload: everything else the entry
/// allocates, as measured by `tests/cache_budget.rs` — two caches of
/// different budgets filled with rows, the difference in live heap
/// (counted in malloc chunks) over the difference in entries. With 100-byte
/// payloads an entry occupies 296–405 B (the middle 80 % of 408 budget
/// pairs 3x apart or more), depending on where the cache's two doubling
/// containers stand: a slab entry of 104 B at a fill of 0.5–1 (a 16-byte
/// key; a 56-byte value: the record less its key, the walk's two `u32`
/// costs, the epoch, the block's id and its generation), a 33-byte bucket
/// of the hash index at a load under 7/8, and 160 B for the payload's
/// buffer and its count (`Bytes` is an `Arc` of a `Vec<u8>` in the frame
/// pool's wrapper, a newtype that adds no byte: two allocations with their
/// headers). 100 + 250 is the middle of that range: what the cache holds in
/// rows is its budget give or take 15 %. A cached block is charged its
/// frame alone; its index of 16 B a record and its entry (a fifth more)
/// are not.
pub const RECORD_ENTRY_OVERHEAD: usize = 250;

/// What a level walk charges a lookup in the tree's statistics — the
/// blocks it asked and the Bloom filters that turned it away — kept with a
/// row, so that a row hit charges the walk it saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkCost {
    /// Candidate blocks asked for the key, the one that held it included.
    pub block_reads: u32,
    /// Levels whose filter ruled the key out.
    pub bloom_skips: u32,
}

/// What a buffer-cache entry is of.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CacheKey {
    /// The whole block at this id.
    Block(BlockId),
    /// The row of the last level walk for this key that ended in a pressed
    /// miss, or in an earlier row answering for its block.
    Row(Key),
}

#[derive(Clone)]
enum Cached {
    Block(Arc<DataBlock>),
    /// The record the walk found, less its key (the row's) — a copy: it
    /// views no frame — with two dates. While the levels stand at install
    /// count `epoch` it answers for all of them, at the walk's `cost`. Past
    /// that it still answers for the block it was read from, the one at
    /// `block` in `generation` (that id's releases so far): a later walk
    /// that reaches that block is spared the device read.
    Row {
        op: OpKind,
        payload: Bytes,
        cost: WalkCost,
        epoch: u64,
        block: BlockId,
        generation: u32,
    },
}

/// Lookups rows answered, by how much of the walk they spared
/// ([`Store::row_hits`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowHits {
    /// Answered at the epoch they were kept: no level was walked.
    pub current: u64,
    /// Kept at an earlier epoch, answered for their block at the end of a
    /// walk: no device read.
    pub earlier: u64,
}

/// What the buffer cache holds of a get's level walk ([`Store::cached_row`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CachedRow {
    /// The row kept at the levels' epoch: the walk's record and its cost.
    Current(Record, WalkCost),
    /// A row kept at an earlier epoch from the block at this id, which is
    /// still the block that held the key: it answers if the walk reaches
    /// that block ([`Store::read_record`]).
    Earlier(BlockId),
    /// No row that can answer.
    Absent,
}

/// The buffer cache, what dates its rows' blocks, what a block entry
/// weighs in it, and how often a row answered.
struct BufferCache {
    entries: SieveCache<CacheKey, Cached>,
    /// How often each id has gone back to the allocator (none yet for an
    /// id past the end). A row names its block by id *and* generation, so
    /// when an id is released no row read from the block that had it can
    /// answer for the next block to get it.
    generations: Vec<u32>,
    /// The device's block size.
    block_weight: usize,
    row_hits: RowHits,
}

impl BufferCache {
    /// Cache `block` as the block at `id`, evicting whatever has to go.
    fn insert_block(&mut self, id: BlockId, block: Arc<DataBlock>) {
        self.entries.insert_weighted(CacheKey::Block(id), Cached::Block(block), self.block_weight);
    }

    /// Whether one more block fits without evicting anything: what a
    /// written block needs to be cached at all, and a get's missed block
    /// to be cached whole rather than as the get's row.
    fn has_room_for_block(&self) -> bool {
        self.entries.weight() + self.block_weight <= self.entries.capacity()
    }

    fn generation(&self, id: BlockId) -> u32 {
        self.generations.get(id.raw() as usize).copied().unwrap_or(0)
    }
}

/// Storage services for one LSM index.
pub struct Store {
    device: Arc<dyn BlockDevice>,
    alloc: BlockAllocator,
    cache: Mutex<BufferCache>,
    /// Whether a row was ever kept: until then a lookup skips the row
    /// probe, and with it the cache's lock.
    holds_rows: AtomicBool,
    bloom_bits_per_key: usize,
    retry: RetryPolicy,
    lifecycle: Mutex<Lifecycle>,
    sink: SinkCell,
}

/// Where block ids stand beyond the allocator's free/used: lost, let go
/// of after being lost, pinned by the durable manifest, or waiting for a
/// trim. One lock over all of it, never held across a device call.
#[derive(Default)]
struct Lifecycle {
    /// Blocks that failed an integrity check: id → lost key range. Their
    /// ids are never freed or reused.
    quarantined: BTreeMap<u64, (Key, Key)>,
    /// Quarantined blocks a merge has since dropped from the structure.
    repaired: BTreeSet<u64>,
    /// Blocks referenced by the last durable manifest: trims deferred.
    protected: HashSet<u64>,
    /// Logically freed blocks waiting for the next checkpoint to trim,
    /// and freed blocks whose trim failed.
    deferred_free: Vec<BlockId>,
    /// A trim failed since the deferred ids were last retried: some of
    /// them may be protected by no manifest, for the next free to retry.
    trim_failed: bool,
}

impl Lifecycle {
    /// Take the deferred ids no manifest protects.
    fn unprotected(&mut self) -> Vec<BlockId> {
        let protected = &self.protected;
        self.deferred_free.extract_if(.., |id| !protected.contains(&id.raw())).collect()
    }
}

impl Store {
    /// Wrap a device. The buffer cache's budget is `cache_blocks` (at least
    /// one) times the device's block size, in bytes; `bloom_bits_per_key ==
    /// 0` disables per-block Bloom filters.
    pub fn new(
        device: Arc<dyn BlockDevice>,
        cache_blocks: usize,
        bloom_bits_per_key: usize,
    ) -> Self {
        let capacity = device.capacity();
        let alloc = BlockAllocator::new(capacity);
        Self::assemble_parts(device, alloc, cache_blocks, bloom_bits_per_key, HashSet::new())
    }

    /// Convenience constructor: in-memory device of `capacity_blocks`.
    pub fn in_memory(capacity_blocks: u64, block_size: usize, cache_blocks: usize) -> Self {
        let dev = Arc::new(MemDevice::with_block_size(capacity_blocks, block_size));
        Store::new(dev, cache_blocks, 0)
    }

    /// Attach to a device whose `used` block ids already hold live data
    /// (recovery from a manifest). The used blocks start out protected —
    /// they are what the durable manifest references.
    pub fn with_allocated<I: IntoIterator<Item = u64>>(
        device: Arc<dyn BlockDevice>,
        cache_blocks: usize,
        bloom_bits_per_key: usize,
        used: I,
    ) -> Self {
        let capacity = device.capacity();
        let used: Vec<u64> = used.into_iter().collect();
        let protected: HashSet<u64> = used.iter().copied().collect();
        let alloc = BlockAllocator::with_allocated(capacity, used);
        Self::assemble_parts(device, alloc, cache_blocks, bloom_bits_per_key, protected)
    }

    fn assemble_parts(
        device: Arc<dyn BlockDevice>,
        alloc: BlockAllocator,
        cache_blocks: usize,
        bloom_bits_per_key: usize,
        protected: HashSet<u64>,
    ) -> Self {
        let block_weight = device.block_size();
        Store {
            device,
            alloc,
            cache: Mutex::new(BufferCache {
                entries: SieveCache::new(cache_blocks.max(1) * block_weight),
                generations: Vec::new(),
                block_weight,
                row_hits: RowHits::default(),
            }),
            holds_rows: AtomicBool::new(false),
            bloom_bits_per_key,
            retry: RetryPolicy::default(),
            lifecycle: Mutex::new(Lifecycle { protected, ..Lifecycle::default() }),
            sink: SinkCell::new(),
        }
    }

    /// Replace the transient-error retry policy (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<dyn BlockDevice> {
        &self.device
    }

    /// Register an event sink on the storage layers: the buffer cache
    /// reports hits/misses/evictions, the device reports reads, writes,
    /// trims and syncs, and the store itself reports retries, quarantines
    /// and read repairs, all into the same sink.
    pub fn set_sink(&self, sink: observe::SinkHandle) {
        self.device.set_sink(sink.clone());
        self.cache.lock().entries.set_sink(sink.clone());
        self.sink.set(sink);
    }

    /// Run `op`, retrying transient device errors per the [`RetryPolicy`].
    fn with_retries<T>(&self, mut op: impl FnMut() -> sim_ssd::Result<T>) -> sim_ssd::Result<T> {
        lockorder::assert_io_allowed("a device operation");
        let first = op();
        self.finish_retries(first, op)
    }

    /// The retry ladder after a first attempt — made by the caller, through
    /// a batched device call if it likes — came back as `result`: the same
    /// attempt budget, events and backoff whoever made that attempt.
    fn finish_retries<T>(
        &self,
        mut result: sim_ssd::Result<T>,
        mut op: impl FnMut() -> sim_ssd::Result<T>,
    ) -> sim_ssd::Result<T> {
        let mut attempt = 0u32;
        while matches!(&result, Err(e) if e.is_transient() && attempt + 1 < self.retry.max_attempts)
        {
            attempt += 1;
            self.sink.emit_with(|| Event::RetryAttempt { attempt });
            if self.retry.base_backoff_us > 0 {
                let us = self.retry.base_backoff_us << (attempt - 1).min(16);
                std::thread::sleep(std::time::Duration::from_micros(us));
            }
            result = op();
        }
        result
    }

    /// An empty frame of this store's block size, expecting `records`.
    pub fn frame_builder(&self, records: usize) -> FrameBuilder {
        FrameBuilder::with_capacity(self.device.block_size(), records)
    }

    /// The one place a finished frame becomes an on-device block: allocate
    /// an id → `land` the frame → Bloom filter → fence handle → cache
    /// admission. [`write_frame`](Store::write_frame) lands the frame on the
    /// device at once, [`WriteBatch::stage_frame`] queues it for a batched
    /// write; if `land` fails the id is released and nothing is published.
    ///
    /// The block itself — the frame that lands and its offsets, charged
    /// `block_size` — enters the cache only while it fits without evicting
    /// anything: no reader asked for it, so it never displaces what one
    /// did. Past a full cache the block is dropped here and the next reader
    /// of it misses. A block is one buffer by construction: a cached block
    /// can pin nothing of the merge inputs its bytes were copied from.
    fn admit(
        &self,
        block: DataBlock,
        land: impl FnOnce(BlockId, Bytes) -> Result<()>,
    ) -> Result<BlockHandle> {
        debug_assert_eq!(block.frame().len(), self.device.block_size());
        let id = self.alloc.alloc()?;
        if let Err(e) = land(id, block.frame().clone()) {
            self.release(id);
            return Err(e);
        }
        let bloom = (self.bloom_bits_per_key > 0)
            .then(|| BloomFilter::from_keys(block.keys(), self.bloom_bits_per_key));
        let handle = BlockHandle::describe(id, &block, bloom);
        let mut cache = self.cache.lock();
        if cache.has_room_for_block() {
            cache.insert_block(id, Arc::new(block));
        }
        Ok(handle)
    }

    /// Allocate, encode, and write a new data block; returns its fence
    /// entry. [`write_frame`](Store::write_frame) over a frame built from
    /// `records`; an empty block is refused before anything is allocated.
    pub fn write_block(&self, records: Vec<Record>) -> Result<BlockHandle> {
        self.write_frame(FrameBuilder::of_records(&records, self.device.block_size())?.finish()?)
    }

    /// Write a finished frame as a new data block. Exactly one device write
    /// when no fault fires; transient write errors are retried against the
    /// *same* block id, so the physical layout of a faulty-but-recovered
    /// run matches the fault-free run.
    pub fn write_frame(&self, block: DataBlock) -> Result<BlockHandle> {
        self.admit(block, |id, frame| Ok(self.with_retries(|| self.device.write(id, &frame))?))
    }

    /// One device read of `handle`, decoded: the block is the frame the
    /// device returned — the device's buffer is the block's buffer.
    fn read_device(&self, handle: &BlockHandle) -> Result<Arc<DataBlock>> {
        let frame = self.with_retries(|| self.device.read(handle.id));
        match frame.map_err(LsmError::from).and_then(|frame| DataBlock::decode(&frame)) {
            Ok(block) => Ok(Arc::new(block)),
            Err(LsmError::Codec(_) | LsmError::Device(sim_ssd::DeviceError::Corrupt(_))) => {
                Err(self.quarantine(handle))
            }
            Err(e) => Err(e),
        }
    }

    /// The whole block `id`, if the cache holds it (a hit).
    fn cached_block(&self, id: BlockId) -> Option<Arc<DataBlock>> {
        match self.cache.lock().entries.get(&CacheKey::Block(id)) {
            Some(Cached::Block(block)) => Some(block),
            _ => None,
        }
    }

    /// Read a block through the cache. Transient device errors are retried;
    /// corruption (device ECC or codec checksum) quarantines the block and
    /// surfaces as [`LsmError::Degraded`] naming the lost key range. A
    /// cached block is a hit, and a miss caches the block.
    pub fn read_block(&self, handle: &BlockHandle) -> Result<Arc<DataBlock>> {
        if let Some(hit) = self.cached_block(handle.id) {
            return Ok(hit);
        }
        let block = self.read_device(handle)?;
        self.cache.lock().insert_block(handle.id, Arc::clone(&block));
        Ok(block)
    }

    /// [`read_block`] of a block the reading step retires — a merge or
    /// compaction input, opened when the merge reaches it, or a block a
    /// seam fix fuses — except that a miss is *not* inserted into the
    /// cache. The step drops the block from the cache when it frees it
    /// ([`free_all`](Store::free_all)); caching it would only evict, for
    /// the microseconds until then, blocks a reader asked for.
    ///
    /// [`read_block`]: Store::read_block
    pub fn read_retiring(&self, handle: &BlockHandle) -> Result<Arc<DataBlock>> {
        self.cached_block(handle.id).map_or_else(|| self.read_device(handle), Ok)
    }

    /// What the cache holds of the level walk for `key` while the levels
    /// stand at install count `epoch`: a row kept at that epoch answers for
    /// all of them — a cache hit, the walk's record and its cost; a row
    /// kept earlier, from a block that has not been released since, may
    /// answer for that block at the end of the walk, and counts as nothing
    /// here, as does no row. A store that has never kept a row answers at
    /// once, without the cache's lock.
    pub fn cached_row(&self, epoch: u64, key: Key) -> CachedRow {
        if !self.holds_rows.load(Ordering::Relaxed) {
            return CachedRow::Absent;
        }
        let mut cache = self.cache.lock();
        let current = cache.entries.hit_if(&CacheKey::Row(key), |row| match row {
            Cached::Row { op, payload, cost, epoch: kept, .. } if *kept == epoch => {
                Some((Record { key, op: *op, payload: payload.clone() }, *cost))
            }
            _ => None,
        });
        if let Some((record, cost)) = current {
            cache.row_hits.current += 1;
            return CachedRow::Current(record, cost);
        }
        match cache.entries.peek(&CacheKey::Row(key)) {
            Some(&Cached::Row { block, generation, .. })
                if generation == cache.generation(block) =>
            {
                CachedRow::Earlier(block)
            }
            _ => CachedRow::Absent,
        }
    }

    /// Lookups rows have answered so far ([`cached_row`] and
    /// [`read_record`]); each of them is also one of the cache's hits.
    ///
    /// [`cached_row`]: Store::cached_row
    /// [`read_record`]: Store::read_record
    pub fn row_hits(&self) -> RowHits {
        self.cache.lock().row_hits
    }

    /// `key`'s record in the block at `handle`, if it has one: what the
    /// level walk of a get at `epoch` wants of a block. One cache lookup —
    /// a hit when the cached block answers or, if `earlier` names this
    /// block ([`CachedRow::Earlier`]), `key`'s row read from it — and on a
    /// miss one device read, decoded and checked like [`read_block`]'s. A
    /// row that answers is dated `epoch` and `cost`, the walk's cost up to
    /// and including this block, from then on. What a miss leaves behind
    /// depends on room: while the whole block fits without evicting
    /// anything it is cached, as `read_block` would; once the cache is full
    /// only the record found is, as the walk's row — a copy of its payload,
    /// dated as above and by the block, charged the payload plus
    /// [`RECORD_ENTRY_OVERHEAD`] — and the frame is dropped, so the
    /// returned record pins nothing. A key the block does not hold leaves
    /// nothing. (Where a row would be charged no less than its block —
    /// blocks of a few hundred bytes, payloads that fill one — the block is
    /// what a found key leaves, at any fill.)
    ///
    /// [`read_block`]: Store::read_block
    pub fn read_record(
        &self,
        handle: &BlockHandle,
        key: Key,
        epoch: u64,
        cost: WalkCost,
        earlier: Option<BlockId>,
    ) -> Result<Option<Record>> {
        let generation = {
            let mut cache = self.cache.lock();
            if earlier == Some(handle.id) {
                let generation = cache.generation(handle.id);
                let answered = cache.entries.hit_if(&CacheKey::Row(key), |row| match row {
                    Cached::Row { op, payload, cost: c, epoch: e, block, generation: g }
                        if *block == handle.id && *g == generation =>
                    {
                        (*c, *e) = (cost, epoch);
                        Some(Record { key, op: *op, payload: payload.clone() })
                    }
                    _ => None,
                });
                if let Some(record) = answered {
                    cache.row_hits.earlier += 1;
                    return Ok(Some(record));
                }
            }
            // A cached block is searched where it lies, under the lock: no
            // count on its `Arc` to take and give back.
            let hit = cache.entries.get_with(&CacheKey::Block(handle.id), |entry| match entry {
                Cached::Block(block) => Some(block.find(key)),
                Cached::Row { .. } => None,
            });
            if let Some(Some(found)) = hit {
                return Ok(found);
            }
            // Dated before the device read: a release of the id while it
            // runs leaves the row this miss keeps out of date.
            cache.generation(handle.id)
        };
        let block = self.read_device(handle)?;
        let found = block.find(key);
        let mut cache = self.cache.lock();
        let pressed = !cache.has_room_for_block();
        let row_weight = |r: &Record| r.payload.len() + RECORD_ENTRY_OVERHEAD;
        match found {
            Some(record) if pressed && row_weight(&record) < cache.block_weight => {
                let copy = Record { payload: Bytes::copy_from_slice(&record.payload), ..record };
                let weight = row_weight(&copy);
                let row = Cached::Row {
                    op: copy.op,
                    payload: copy.payload.clone(),
                    cost,
                    epoch,
                    block: handle.id,
                    generation,
                };
                cache.entries.insert_weighted(CacheKey::Row(key), row, weight);
                self.holds_rows.store(true, Ordering::Relaxed);
                Ok(Some(copy))
            }
            None if pressed => Ok(None),
            // Room for the block — or a record so large, or a block so
            // small, that the block is the lighter of the two.
            found => {
                cache.insert_block(handle.id, block);
                Ok(found)
            }
        }
    }

    /// Start a write batch: stage several `write_block`s and land them
    /// with one coalesced device call. See [`WriteBatch`].
    pub fn write_batch(&self) -> WriteBatch<'_> {
        WriteBatch { store: self, staged: Vec::new() }
    }

    /// Record `handle` as lost and build the `Degraded` error for it.
    fn quarantine(&self, handle: &BlockHandle) -> LsmError {
        let range = (handle.min, handle.max);
        let fresh = self.lifecycle.lock().quarantined.insert(handle.id.raw(), range).is_none();
        if fresh {
            let block = handle.id.raw();
            self.sink.emit_with(|| Event::BlockQuarantined { block });
        }
        LsmError::Degraded { ranges: vec![(handle.min, handle.max)] }
    }

    /// The one way an id goes back to the allocator: its generation moves
    /// on first, so no row read from the block that had the id can answer
    /// for the next block to get it.
    fn release(&self, id: BlockId) {
        {
            let generations = &mut self.cache.lock().generations;
            let at = id.raw() as usize;
            if generations.len() <= at {
                generations.resize(at + 1, 0);
            }
            generations[at] = generations[at].wrapping_add(1);
        }
        self.alloc.free(id);
    }

    /// [`free_all`](Store::free_all) of one block.
    pub fn free_block(&self, handle: &BlockHandle) -> Result<()> {
        self.free_all(std::slice::from_ref(handle))
    }

    /// Release blocks the index no longer references: cached copy dropped,
    /// TRIM on the device, id back to the allocator. Quarantined blocks
    /// are never released (their ids leak by design — reusing a suspect
    /// frame risks silent aliasing); the structure letting go of one *is*
    /// its read repair, recorded here. Blocks the last durable manifest
    /// references are only released after the next checkpoint commits.
    /// A block whose trim fails stays deferred: the next call or
    /// checkpoint retries it, once no manifest protects it.
    ///
    /// The cache and the block lifecycle are each locked once per call, not
    /// once per block, and neither is held across a device call. Every
    /// block is attempted; the first error is returned.
    pub fn free_all(&self, handles: &[BlockHandle]) -> Result<()> {
        {
            let mut cache = self.cache.lock();
            for h in handles {
                cache.entries.remove(&CacheKey::Block(h.id));
            }
        }
        let mut trim: Vec<BlockId> = Vec::with_capacity(handles.len());
        {
            let mut life = self.lifecycle.lock();
            for h in handles {
                let id = h.id.raw();
                if life.quarantined.contains_key(&id) {
                    if life.repaired.insert(id) {
                        self.sink.emit_with(|| Event::ReadRepair { block: id });
                    }
                } else if life.protected.contains(&id) {
                    life.deferred_free.push(h.id);
                } else {
                    trim.push(h.id);
                }
            }
            if std::mem::take(&mut life.trim_failed) {
                trim.extend(life.unprotected());
            }
        }
        self.trim_and_release(trim)
    }

    /// Trim each of `ids` and give it back to the allocator. An id whose
    /// trim fails goes back on the deferred list for the next free or
    /// checkpoint to retry. Every id is attempted; the first error is
    /// returned.
    fn trim_and_release(&self, ids: Vec<BlockId>) -> Result<()> {
        let mut first_err = Ok(());
        let mut failed = Vec::new();
        for id in ids {
            match self.with_retries(|| self.device.trim(id)) {
                Ok(()) => self.release(id),
                Err(e) => {
                    failed.push(id);
                    if first_err.is_ok() {
                        first_err = Err(e.into());
                    }
                }
            }
        }
        let mut life = self.lifecycle.lock();
        life.trim_failed |= !failed.is_empty();
        life.deferred_free.extend(failed);
        first_err
    }

    /// Take back a block that was admitted but is not to be: its cache
    /// entry, if it got one, and its id.
    fn discard(&self, id: BlockId) {
        self.cache.lock().entries.remove(&CacheKey::Block(id));
        self.release(id);
    }

    /// Flush the device, retrying transient sync errors.
    pub fn sync(&self) -> Result<()> {
        self.with_retries(|| self.device.sync())?;
        Ok(())
    }

    /// A checkpoint manifest referencing `ids` just became durable
    /// (renamed into place): those blocks are now the protected set, and
    /// every deferred free whose block the new manifest no longer
    /// references can finally be trimmed and recycled. Every one of them
    /// is attempted; those whose trim failed stay deferred for the next
    /// free or checkpoint, and the first error is returned.
    pub fn finish_checkpoint<I: IntoIterator<Item = u64>>(&self, ids: I) -> Result<()> {
        let protected: HashSet<u64> = ids.into_iter().collect();
        let pending = {
            let mut life = self.lifecycle.lock();
            life.protected = protected;
            life.trim_failed = false;
            life.unprotected()
        };
        self.trim_and_release(pending)
    }

    /// Key ranges that may have been lost to quarantined blocks, in block
    /// order. Empty on a healthy tree.
    pub fn degraded_ranges(&self) -> Vec<(Key, Key)> {
        self.lifecycle.lock().quarantined.values().copied().collect()
    }

    /// Ids of quarantined blocks (never reused).
    pub fn quarantined_ids(&self) -> Vec<u64> {
        self.lifecycle.lock().quarantined.keys().copied().collect()
    }

    /// Ids of quarantined blocks already dropped from the structure by a
    /// merge. A level referencing one of these is an invariant violation.
    pub fn repaired_ids(&self) -> Vec<u64> {
        self.lifecycle.lock().repaired.iter().copied().collect()
    }

    /// Device I/O counters (reads/writes/trims so far).
    pub fn io_snapshot(&self) -> sim_ssd::IoSnapshot {
        self.device.io_snapshot()
    }

    /// Buffer-cache statistics.
    pub fn cache_stats(&self) -> sim_ssd::cache::CacheStats {
        self.cache.lock().entries.stats()
    }

    /// Blocks currently allocated to the index.
    pub fn live_blocks(&self) -> u64 {
        self.alloc.live_blocks()
    }

    /// Blocks still available on the device.
    pub fn free_blocks(&self) -> u64 {
        self.alloc.free_blocks()
    }
}

/// Batches [`Store::write_block`] calls into coalesced device writes.
///
/// `stage` does everything `write_block` does *except* touch the device
/// (both go through the store's one admit sequence). `flush` then lands
/// every staged frame with one [`BlockDevice::write_many`] call (adjacent
/// ids coalesce into single syscalls on a file backend) and re-runs the
/// per-block retry ladder for any transient failure, against the same id,
/// exactly like `write_block`.
///
/// **Discipline:** a staged block's frame does not exist on the device
/// until `flush`, and a block staged past a full cache is not cached
/// either ([`Store::admit`] caches a written block into room only): until
/// `flush` it exists nowhere a read can find it. Callers must flush before
/// (a) freeing a staged block, (b) reading one back, or (c) publishing the
/// handles into the tree. A batch dropped with staged blocks (an
/// error-path abort) releases their ids and cache entries — the frames
/// never reached the device, so the handles must die with it.
pub struct WriteBatch<'a> {
    store: &'a Store,
    staged: Vec<(BlockId, Bytes)>,
}

impl WriteBatch<'_> {
    /// [`stage_frame`](WriteBatch::stage_frame) over a frame built from
    /// `records`; an empty block is refused before anything is allocated.
    pub fn stage(&mut self, records: Vec<Record>) -> Result<BlockHandle> {
        let block_size = self.store.device.block_size();
        self.stage_frame(FrameBuilder::of_records(&records, block_size)?.finish()?)
    }

    /// Stage one finished frame, returning its fence handle immediately.
    /// The id is allocated and the block cached (into room only) now; the
    /// device write lands at [`flush`](WriteBatch::flush).
    pub fn stage_frame(&mut self, block: DataBlock) -> Result<BlockHandle> {
        let staged = &mut self.staged;
        self.store.admit(block, |id, frame| {
            staged.push((id, frame));
            Ok(())
        })
    }

    /// Number of staged-but-unflushed blocks.
    pub fn pending(&self) -> usize {
        self.staged.len()
    }

    /// Land every staged frame on the device with one batched call,
    /// retrying transient per-block failures on the same id. All or
    /// nothing: on a permanent failure every block of this flush — the
    /// ones that landed too — is released (id, cache entry, frame), and
    /// the first error is returned after every block has been attempted.
    /// A caller therefore owns exactly the blocks of its successful
    /// flushes.
    pub fn flush(&mut self) -> Result<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let mut staged = std::mem::take(&mut self.staged);
        // Writes within a batch are mutually unordered (no durability
        // point between them), so hand them to the device sorted by id:
        // the allocator's LIFO free list returns runs of recycled ids in
        // descending order, and sorting turns those back into the
        // ascending extents `write_many` can coalesce.
        staged.sort_by_key(|(id, _)| id.raw());
        lockorder::assert_io_allowed("a batched device write");
        let results = self.store.device.write_many(&staged);
        let mut first_err: Option<LsmError> = None;
        let mut landed: Vec<BlockId> = Vec::with_capacity(staged.len());
        for ((id, frame), result) in staged.into_iter().zip(results) {
            match self.store.finish_retries(result, || self.store.device.write(id, &frame)) {
                Ok(()) => landed.push(id),
                Err(e) => {
                    self.store.discard(id);
                    first_err.get_or_insert(e.into());
                }
            }
        }
        let Some(e) = first_err else { return Ok(()) };
        for id in landed {
            // Best effort: the id goes back either way, and a frame left
            // behind under a free id is overwritten by its next owner.
            let _ = self.store.device.trim(id);
            self.store.discard(id);
        }
        Err(e)
    }
}

impl Drop for WriteBatch<'_> {
    fn drop(&mut self) {
        // An abandoned batch means the caller aborted on an error between
        // stage and flush. The staged frames never reached the device;
        // releasing the ids here keeps the allocator exactly where a
        // failed `write_block` would have left it.
        for (id, _) in self.staged.drain(..) {
            self.store.discard(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::lies_within;
    use crate::record::Record;
    use observe::SinkHandle;
    use sim_ssd::{FaultDevice, FaultPlan};

    impl Store {
        /// Push the blocks at `ids` out of the cache the way readers do: write
        /// filler blocks and read each through [`read_block`], which inserts
        /// by eviction, until none of `ids` is resident. (A write into a full
        /// cache evicts nothing, and neither does a get that misses past it.)
        /// The fillers stay live and cached; a test that wants the room back
        /// frees them.
        ///
        /// [`read_block`]: Store::read_block
        pub(crate) fn evict_by_reading(&self, ids: &[BlockId]) -> Vec<BlockHandle> {
            let resident = || {
                let cache = self.cache.lock();
                ids.iter().any(|&id| cache.entries.peek(&CacheKey::Block(id)).is_some())
            };
            let mut fillers = Vec::new();
            while resident() {
                assert!(fillers.len() < 32, "32 fillers read and a block is still cached");
                let key = (1 << 40) + fillers.len() as Key;
                let filler = self.write_block(vec![Record::put(key, vec![0u8; 4])]).unwrap();
                self.read_block(&filler).unwrap();
                fillers.push(filler);
            }
            fillers
        }
    }

    fn store() -> Store {
        Store::in_memory(64, 256, 8)
    }

    fn recs(keys: &[u64]) -> Vec<Record> {
        keys.iter().map(|&k| Record::put(k, vec![k as u8; 4])).collect()
    }

    fn faulty_store(plan: FaultPlan, retry: RetryPolicy) -> (Arc<FaultDevice>, Store) {
        let inner = Arc::new(MemDevice::with_block_size(64, 256));
        let dev = Arc::new(FaultDevice::with_plan(inner, 1, plan));
        let s = Store::new(Arc::clone(&dev) as Arc<dyn BlockDevice>, 4, 0).with_retry(retry);
        (dev, s)
    }

    #[test]
    fn write_read_free_cycle() {
        let s = store();
        let h = s.write_block(recs(&[1, 5, 9])).unwrap();
        assert_eq!((h.min, h.max, h.count), (1, 9, 3));
        let b = s.read_block(&h).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(s.live_blocks(), 1);
        s.free_block(&h).unwrap();
        assert_eq!(s.live_blocks(), 0);
        let io = s.io_snapshot();
        assert_eq!((io.writes, io.trims), (1, 1));
    }

    #[test]
    fn reads_served_from_cache_do_not_touch_device() {
        let s = store();
        let h = s.write_block(recs(&[1, 2])).unwrap();
        let mut batch = s.write_batch();
        let staged = batch.stage(recs(&[5])).unwrap();
        batch.flush().unwrap();
        for _ in 0..5 {
            s.read_block(&h).unwrap();
            s.read_block(&staged).unwrap();
        }
        // A block written or staged into room is cached, so no device read
        // at all.
        assert_eq!(s.io_snapshot().reads, 0);
        assert_eq!((s.cache_stats().hits, s.cache_stats().misses), (10, 0));
    }

    #[test]
    fn cache_miss_goes_to_device() {
        let dev = Arc::new(MemDevice::with_block_size(64, 256));
        let s = Store::new(dev, 1, 0); // cache of one block
        let h1 = s.write_block(recs(&[1])).unwrap();
        let _h2 = s.write_block(recs(&[2])).unwrap(); // no room: not cached
        s.evict_by_reading(&[h1.id]);
        let reads = s.io_snapshot().reads;
        s.read_block(&h1).unwrap();
        assert_eq!(s.io_snapshot().reads, reads + 1);
    }

    /// A written block enters the cache only into room: into a full cache
    /// a `write_block` or a staged block evicts nothing and caches nothing.
    #[test]
    fn a_write_into_a_full_cache_evicts_nothing_and_is_not_cached() {
        let s = Store::in_memory(64, 256, 4);
        let resident: Vec<BlockHandle> =
            (0..4u64).map(|k| s.write_block(recs(&[k])).unwrap()).collect();
        let before = s.cache_stats();
        assert_eq!(before.resident, before.capacity, "four blocks fill a cache of four");
        let written = s.write_block(recs(&[10])).unwrap();
        let mut batch = s.write_batch();
        let staged = batch.stage(recs(&[20])).unwrap();
        batch.flush().unwrap();
        let after = s.cache_stats();
        assert_eq!((after.resident, after.evictions), (before.resident, before.evictions));
        let cache = s.cache.lock();
        for h in [&written, &staged] {
            assert!(cache.entries.peek(&CacheKey::Block(h.id)).is_none(), "{:?} cached", h.id);
        }
        assert!(resident.iter().all(|h| cache.entries.peek(&CacheKey::Block(h.id)).is_some()));
    }

    #[test]
    fn bloom_built_when_enabled() {
        let dev = Arc::new(MemDevice::with_block_size(64, 256));
        let s = Store::new(dev, 8, 10);
        let h = s.write_block(recs(&[10, 20])).unwrap();
        let bloom = h.bloom.as_ref().expect("bloom enabled");
        assert!(bloom.may_contain(10));
        assert!(bloom.may_contain(20));
    }

    #[test]
    fn bloom_skipped_when_disabled() {
        let s = Store::in_memory(16, 256, 4);
        let h = s.write_block(recs(&[1])).unwrap();
        assert!(h.bloom.is_none());
    }

    #[test]
    fn exhausted_retries_release_the_block_id() {
        // Every write fails, so all attempts are burned and the error
        // surfaces — but the allocated id must be returned.
        let (dev, s) = faulty_store(
            FaultPlan::none().write_error_rate(1.0),
            RetryPolicy { max_attempts: 3, base_backoff_us: 0 },
        );
        assert!(s.write_block(recs(&[1])).is_err());
        assert_eq!(s.live_blocks(), 0);
        // And the id is reusable afterwards.
        dev.set_plan(FaultPlan::none());
        let h = s.write_block(recs(&[1])).unwrap();
        assert_eq!(h.count, 1);
    }

    #[test]
    fn transient_write_fault_is_retried_on_the_same_id() {
        let sink = Arc::new(observe::VecSink::new());
        let (_dev, s) = faulty_store(
            FaultPlan::none().fail_write_at(1),
            RetryPolicy { max_attempts: 4, base_backoff_us: 0 },
        );
        s.set_sink(SinkHandle::new(sink.clone()));
        let h = s.write_block(recs(&[7])).unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(s.live_blocks(), 1);
        let events = sink.drain();
        assert!(
            events.iter().any(|e| matches!(e, Event::RetryAttempt { attempt: 1 })),
            "retry must be observable"
        );
    }

    #[test]
    fn transient_read_fault_is_retried() {
        let (dev, s) =
            faulty_store(FaultPlan::none(), RetryPolicy { max_attempts: 4, base_backoff_us: 0 });
        let h = s.write_block(recs(&[3])).unwrap();
        // Evict the block so the read really hits the device.
        s.evict_by_reading(&[h.id]);
        dev.set_plan(FaultPlan::none().fail_read_at(1));
        let b = s.read_block(&h).unwrap();
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn corrupt_read_quarantines_and_degrades() {
        let sink = Arc::new(observe::VecSink::new());
        let (dev, s) = faulty_store(FaultPlan::none(), RetryPolicy::none());
        s.set_sink(SinkHandle::new(sink.clone()));
        let good = s.write_block(recs(&[1])).unwrap();
        dev.set_plan(FaultPlan::none().bit_flip_rate(1.0));
        let bad = s.write_block(recs(&[40, 60])).unwrap();
        dev.set_plan(FaultPlan::none());
        // Evict both from cache.
        s.evict_by_reading(&[good.id, bad.id]);
        match s.read_block(&bad) {
            Err(LsmError::Degraded { ranges }) => assert_eq!(ranges, vec![(40, 60)]),
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert_eq!(s.quarantined_ids(), vec![bad.id.raw()]);
        assert_eq!(s.degraded_ranges(), vec![(40, 60)]);
        assert!(s.read_block(&good).is_ok(), "healthy blocks unaffected");
        let events = sink.drain();
        assert!(events.iter().any(|e| matches!(e, Event::BlockQuarantined { .. })));
        // Quarantined ids are never freed back to the allocator.
        let live = s.live_blocks();
        s.free_block(&bad).unwrap();
        assert_eq!(s.live_blocks(), live, "quarantined id must not be recycled");
    }

    #[test]
    fn protected_blocks_free_only_after_checkpoint() {
        let s = store();
        let h = s.write_block(recs(&[1])).unwrap();
        // Pretend a durable manifest references h.
        s.finish_checkpoint([h.id.raw()]).unwrap();
        let trims_before = s.io_snapshot().trims;
        s.free_block(&h).unwrap();
        assert_eq!(s.io_snapshot().trims, trims_before, "trim must be deferred");
        assert_eq!(s.live_blocks(), 1, "id still allocated");
        // Next checkpoint no longer references h: the free happens.
        s.finish_checkpoint([]).unwrap();
        assert_eq!(s.io_snapshot().trims, trims_before + 1);
        assert_eq!(s.live_blocks(), 0);
    }

    /// `free_all`'s contract: one trim that keeps failing costs that id's
    /// release, not every id after it. (The loop returned on the first
    /// error with the rest already drained out of the deferred list:
    /// neither freed nor deferred, leaked for good.)
    #[test]
    fn a_failed_trim_at_a_checkpoint_keeps_that_id_deferred_and_frees_the_rest() {
        let (dev, s) = faulty_store(FaultPlan::none(), RetryPolicy::none());
        let blocks: Vec<BlockHandle> =
            (0..4u64).map(|k| s.write_block(recs(&[k])).unwrap()).collect();
        s.finish_checkpoint(blocks.iter().map(|h| h.id.raw())).unwrap();
        s.free_all(&blocks).unwrap();
        assert_eq!((s.live_blocks(), s.io_snapshot().trims), (4, 0), "all four deferred");
        // The next manifest references none of them; the second one's trim
        // fails however often it is tried.
        dev.set_plan(FaultPlan::none().fail_trim_of(blocks[1].id.raw()));
        let err = s.finish_checkpoint([]).unwrap_err();
        assert!(matches!(err, LsmError::Device(_)), "{err:?}");
        assert_eq!(s.live_blocks(), 1, "the three whose trim went through are free");
        assert_eq!(s.io_snapshot().trims, 3);
        // The fault clears: the next checkpoint finishes the job.
        dev.set_plan(FaultPlan::none());
        s.finish_checkpoint([]).unwrap();
        assert_eq!((s.live_blocks(), s.io_snapshot().trims), (0, 4));
    }

    /// A block no manifest protects whose trim fails in `free_all` stays
    /// deferred, and the next free or checkpoint retries it: once the
    /// fault clears, the live count is what the index references again.
    /// (It was neither released nor deferred: leaked for good.)
    #[test]
    fn a_failed_trim_in_free_all_is_retried_once_the_fault_clears() {
        let (dev, s) = faulty_store(FaultPlan::none(), RetryPolicy::none());
        let blocks: Vec<BlockHandle> =
            (0..3u64).map(|k| s.write_block(recs(&[k])).unwrap()).collect();
        dev.set_plan(FaultPlan::none().fail_trim_of(blocks[0].id.raw()));
        let err = s.free_block(&blocks[0]).unwrap_err();
        assert!(matches!(err, LsmError::Device(_)), "{err:?}");
        assert_eq!(s.live_blocks(), 3, "the failed trim's id is still allocated");
        dev.set_plan(FaultPlan::none());
        s.free_block(&blocks[1]).unwrap();
        assert_eq!(s.live_blocks(), 1, "the next free retried the failed trim");
        // A checkpoint retries one just the same.
        dev.set_plan(FaultPlan::none().fail_trim_of(blocks[2].id.raw()));
        s.free_block(&blocks[2]).unwrap_err();
        dev.set_plan(FaultPlan::none());
        s.finish_checkpoint([]).unwrap();
        assert_eq!((s.live_blocks(), s.io_snapshot().trims), (0, 3));
    }

    /// 1 KiB blocks, so that a row (4-byte payloads) is the lighter thing
    /// to keep, and a cache of three of them.
    fn pressed_store() -> (Arc<FaultDevice>, Store) {
        let inner = Arc::new(MemDevice::with_block_size(64, 1024));
        let dev = Arc::new(FaultDevice::new(inner, 1));
        let s = Store::new(Arc::clone(&dev) as Arc<dyn BlockDevice>, 3, 0)
            .with_retry(RetryPolicy::none());
        (dev, s)
    }

    fn versioned(keys: &[u64], version: u8) -> Vec<Record> {
        keys.iter().map(|&k| Record::put(k, vec![version; 4])).collect()
    }

    /// What a walk that asked one block and nothing else charges.
    const ONE_READ: WalkCost = WalkCost { block_reads: 1, bloom_skips: 0 };

    #[test]
    fn a_pressed_miss_keeps_the_row_and_a_miss_with_room_the_block() {
        let (_dev, s) = pressed_store();
        // Four blocks written through a cache of three, then readers push
        // the first out: the cache is left full.
        let a = s.write_block(versioned(&[1, 2, 3], 1)).unwrap();
        let others: Vec<BlockHandle> =
            (10..13u64).map(|k| s.write_block(versioned(&[k], 1)).unwrap()).collect();
        let b = &others[2];
        let fillers = s.evict_by_reading(&[a.id]);
        let (frame_a, frame_b) = (s.device.read(a.id).unwrap(), s.device.read(b.id).unwrap());
        let (reads_before, before) = (s.io_snapshot().reads, s.cache_stats());
        let reads = || s.io_snapshot().reads - reads_before;

        assert_eq!(s.cached_row(0, 2), CachedRow::Absent, "no row kept yet");
        let cost = WalkCost { block_reads: 2, bloom_skips: 1 };
        let found = s.read_record(&a, 2, 0, cost, None).unwrap().expect("present");
        assert_eq!((reads(), &found.payload[..]), (1, &[1u8; 4][..]));
        assert!(!lies_within(&found.payload, &frame_a), "a pressed miss returns a copy");
        // What stayed is that row, with the walk's cost: it answers for its
        // key at its epoch; past it, only for its block; for no other key.
        assert_eq!(s.cached_row(0, 2), CachedRow::Current(found, cost));
        assert_eq!(s.cached_row(1, 2), CachedRow::Earlier(a.id));
        assert_eq!(s.cached_row(0, 3), CachedRow::Absent);
        assert_eq!(s.row_hits(), RowHits { current: 1, earlier: 0 });
        // The block was not kept: its neighbour is read again.
        let neighbour = s.read_record(&a, 3, 0, ONE_READ, None).unwrap();
        assert_eq!((reads(), neighbour), (2, Some(Record::put(3, vec![1u8; 4]))));
        // A key the block does not hold leaves nothing behind.
        let resident = s.cache_stats().resident;
        assert_eq!(s.read_record(&a, 7, 0, ONE_READ, None).unwrap(), None);
        assert_eq!((reads(), s.cache_stats().resident), (3, resident));
        // A block asked and a row found are one lookup each; a row absent,
        // or kept at an earlier epoch, is none.
        let after = s.cache_stats();
        assert_eq!((after.hits - before.hits, after.misses - before.misses), (1, 3));
        assert!(after.resident <= after.capacity);
        // A whole-block reader gets nothing out of rows.
        assert_eq!(s.read_block(&a).unwrap().len(), 3);
        assert_eq!(reads(), 4);

        // Room again — every other block freed: the next miss keeps its
        // block, which then answers for every key, found or not, and no row.
        s.free_all(&others[..2]).unwrap();
        s.free_all(&fillers).unwrap();
        s.free_block(&a).unwrap();
        s.cache.lock().entries.remove(&CacheKey::Block(b.id));
        let found = s.read_record(b, 12, 0, ONE_READ, None).unwrap().expect("present");
        assert_eq!(reads(), 5);
        assert!(lies_within(&found.payload, &frame_b), "a view of the cached block's frame");
        assert_eq!(s.read_record(b, 13, 0, ONE_READ, None).unwrap(), None);
        assert_eq!(reads(), 5);
        assert_eq!(s.cached_row(0, 12), CachedRow::Absent);
        assert_eq!(s.row_hits(), RowHits { current: 1, earlier: 0 });
    }

    /// Past the epoch it was kept at, a row still holds its block's record:
    /// a walk at the next epoch that reaches that block — and only that
    /// block — is answered by it without a device read, and from then on
    /// the row is the new walk's, cost and epoch.
    #[test]
    fn a_row_of_an_earlier_epoch_answers_for_its_block_and_is_the_new_walks_from_then_on() {
        let (_dev, s) = pressed_store();
        let a = s.write_block(versioned(&[1, 2, 3], 1)).unwrap();
        let newer = s.write_block(versioned(&[0, 4], 2)).unwrap();
        for k in 10..12u64 {
            s.write_block(versioned(&[k], 1)).unwrap();
        }
        s.evict_by_reading(&[a.id, newer.id]);
        let kept = s.read_record(&a, 2, 0, ONE_READ, None).unwrap().expect("present");
        let reads = s.io_snapshot().reads;
        // An install put `newer` above `a`: the walk for key 2 asks it
        // first, which the row does not answer for.
        assert_eq!(s.cached_row(1, 2), CachedRow::Earlier(a.id));
        assert_eq!(s.read_record(&newer, 2, 1, ONE_READ, Some(a.id)).unwrap(), None);
        assert_eq!(s.io_snapshot().reads, reads + 1);
        let hits = s.cache_stats().hits;
        let cost = WalkCost { block_reads: 2, bloom_skips: 0 };
        assert_eq!(s.read_record(&a, 2, 1, cost, Some(a.id)).unwrap(), Some(kept.clone()));
        assert_eq!(s.io_snapshot().reads, reads + 1, "the row answered for its block");
        assert_eq!(s.cache_stats().hits, hits + 1);
        assert_eq!(s.row_hits(), RowHits { current: 0, earlier: 1 });
        assert_eq!(s.cached_row(1, 2), CachedRow::Current(kept, cost));
        assert_eq!(s.cached_row(0, 2), CachedRow::Earlier(a.id));
    }

    /// The allocator reuses ids LIFO, and nothing visits the cache's rows
    /// when a block is freed. A row names its block by id and generation:
    /// the release of the id moves its generation on, so a row kept from
    /// the old block answers for no walk that reaches the new one, even at
    /// the same id.
    #[test]
    fn a_row_kept_from_a_freed_block_does_not_answer_for_the_next_block_at_its_id() {
        let (_dev, s) = pressed_store();
        let old = s.write_block(versioned(&[1, 2, 3], 1)).unwrap();
        for k in 10..13u64 {
            s.write_block(versioned(&[k], 1)).unwrap();
        }
        s.evict_by_reading(&[old.id]);
        let kept = s.read_record(&old, 2, 0, ONE_READ, None).unwrap().unwrap();
        assert_eq!(kept.payload[..], [1u8; 4]);
        assert_eq!(s.cached_row(0, 2), CachedRow::Current(kept, ONE_READ));
        s.free_block(&old).unwrap();
        let new = s.write_block(versioned(&[2, 5], 2)).unwrap();
        assert_eq!(new.id, old.id, "the freed id is the next one handed out");
        // Push the new block out of the cache, if a write into room cached
        // it; the old block's row, visited, outlasts it.
        s.evict_by_reading(&[new.id]);
        {
            let cache = s.cache.lock();
            assert!(cache.entries.peek(&CacheKey::Block(new.id)).is_none(), "new block cached");
            assert!(
                cache.entries.peek(&CacheKey::Row(2)).is_some(),
                "the stale row is gone: no test"
            );
        }
        // The levels that hold the new block stand at the next epoch.
        assert_eq!(s.cached_row(1, 2), CachedRow::Absent);
        let reads = s.io_snapshot().reads;
        let got = s.read_record(&new, 2, 1, ONE_READ, Some(new.id)).unwrap().unwrap();
        assert_eq!(got.payload[..], [2u8; 4]);
        assert_eq!(s.io_snapshot().reads, reads + 1, "answered by the device, not the cache");
        assert_eq!(s.cached_row(1, 2), CachedRow::Current(got, ONE_READ));
        assert_eq!(s.row_hits(), RowHits { current: 2, earlier: 0 });
    }

    /// A corrupt frame behind `read_record` is handled as behind
    /// `read_block`: quarantined, reported with its key range.
    #[test]
    fn a_corrupt_frame_behind_read_record_quarantines_and_degrades() {
        let sink = Arc::new(observe::VecSink::new());
        let (dev, s) = pressed_store();
        s.set_sink(SinkHandle::new(sink.clone()));
        dev.set_plan(FaultPlan::none().bit_flip_rate(1.0));
        let bad = s.write_block(versioned(&[40, 60], 1)).unwrap();
        dev.set_plan(FaultPlan::none());
        let good: Vec<BlockHandle> =
            (0..3u64).map(|k| s.write_block(versioned(&[k], 1)).unwrap()).collect();
        s.evict_by_reading(&[bad.id]);
        match s.read_record(&bad, 40, 0, ONE_READ, None) {
            Err(LsmError::Degraded { ranges }) => assert_eq!(ranges, vec![(40, 60)]),
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert_eq!(s.quarantined_ids(), vec![bad.id.raw()]);
        assert!(sink.drain().iter().any(|e| matches!(e, Event::BlockQuarantined { .. })));
        assert!(
            s.read_record(&good[0], 0, 0, ONE_READ, None).unwrap().is_some(),
            "healthy blocks unaffected"
        );
        let live = s.live_blocks();
        s.free_block(&bad).unwrap();
        assert_eq!(s.live_blocks(), live, "quarantined id must not be recycled");
    }

    #[test]
    fn read_retiring_hits_the_cache_and_leaves_misses_out_of_it() {
        let (_dev, s) = faulty_store(FaultPlan::none(), RetryPolicy::none());
        let a = s.write_block(recs(&[1, 2])).unwrap();
        // Evict a (cache of 4), then have a reader cache c.
        s.evict_by_reading(&[a.id]);
        let c = s.write_block(recs(&[40])).unwrap();
        s.read_block(&c).unwrap(); // cached for sure
        let (reads, cache) = (s.io_snapshot().reads, s.cache_stats());
        assert_eq!(s.read_retiring(&c).unwrap().min_key(), 40);
        assert_eq!(s.io_snapshot().reads, reads, "a cached block is a hit");
        assert_eq!(s.cache_stats().hits, cache.hits + 1);
        assert_eq!(s.read_retiring(&a).unwrap().min_key(), 1);
        assert_eq!(s.io_snapshot().reads, reads + 1, "a miss reads the device once");
        // The cache is full: an insertion would have evicted something.
        assert_eq!(s.cache_stats().evictions, cache.evictions, "a retiring miss was cached");
        assert!(s.cache.lock().entries.peek(&CacheKey::Block(a.id)).is_none());
        s.read_retiring(&a).unwrap();
        assert_eq!(s.io_snapshot().reads, reads + 2, "and so a second read misses again");
    }

    #[test]
    fn read_retiring_quarantines_a_corrupt_frame() {
        let (dev, s) = faulty_store(FaultPlan::none(), RetryPolicy::none());
        dev.set_plan(FaultPlan::none().bit_flip_rate(1.0));
        let bad = s.write_block(recs(&[10, 20])).unwrap();
        dev.set_plan(FaultPlan::none());
        s.evict_by_reading(&[bad.id]);
        match s.read_retiring(&bad) {
            Err(LsmError::Degraded { ranges }) => assert_eq!(ranges, vec![(10, 20)]),
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert_eq!(s.quarantined_ids(), vec![bad.id.raw()]);
    }

    #[test]
    fn read_retiring_retries_a_transient_fault_on_the_same_id() {
        let sink = Arc::new(observe::VecSink::new());
        let (dev, s) =
            faulty_store(FaultPlan::none(), RetryPolicy { max_attempts: 4, base_backoff_us: 0 });
        s.set_sink(SinkHandle::new(sink.clone()));
        let a = s.write_block(recs(&[7, 8])).unwrap();
        s.evict_by_reading(&[a.id]);
        let reads = s.io_snapshot().reads;
        dev.set_plan(FaultPlan::none().fail_read_at(1));
        sink.drain();
        assert_eq!(s.read_retiring(&a).unwrap().min_key(), 7);
        let events = sink.drain();
        assert!(events.iter().any(|e| matches!(e, Event::RetryAttempt { attempt: 1 })));
        let read: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::DeviceRead { block } => Some(*block),
                _ => None,
            })
            .collect();
        assert_eq!(read, vec![a.id.raw()], "the retry read the same block");
        assert_eq!(s.io_snapshot().reads, reads + 1);
        assert!(s.quarantined_ids().is_empty());
    }

    #[test]
    fn an_empty_block_is_refused_before_anything_is_allocated() {
        let s = store();
        let h = s.write_block(recs(&[1])).unwrap();
        let (live, writes) = (s.live_blocks(), s.io_snapshot().writes);
        assert!(matches!(s.write_block(vec![]), Err(LsmError::Invariant(_))));
        let mut batch = s.write_batch();
        assert!(matches!(batch.stage(vec![]), Err(LsmError::Invariant(_))));
        assert_eq!(batch.pending(), 0);
        batch.flush().unwrap();
        assert_eq!((s.live_blocks(), s.io_snapshot().writes), (live, writes));
        assert!(s.read_block(&h).is_ok());
    }

    #[test]
    fn write_batch_defers_device_writes_until_flush() {
        let s = store();
        let mut batch = s.write_batch();
        let h1 = batch.stage(recs(&[1, 2])).unwrap();
        let h2 = batch.stage(recs(&[5])).unwrap();
        assert_eq!(batch.pending(), 2);
        assert_eq!((h1.min, h1.max, h1.count), (1, 2, 2));
        assert_eq!(h2.count, 1);
        assert_eq!(s.io_snapshot().writes, 0, "nothing on the device yet");
        assert_eq!(s.live_blocks(), 2, "ids are allocated at stage time");
        batch.flush().unwrap();
        assert_eq!(batch.pending(), 0);
        assert_eq!(s.io_snapshot().writes, 2);
        // Staged blocks are readable after flush even with a cold cache.
        let s2_frame_check = s.read_block(&h1).unwrap();
        assert_eq!(s2_frame_check.min_key(), 1);
    }

    #[test]
    fn write_batch_retries_transient_flush_failures() {
        let sink = Arc::new(observe::VecSink::new());
        let (_dev, s) = faulty_store(
            FaultPlan::none().fail_write_at(1),
            RetryPolicy { max_attempts: 4, base_backoff_us: 0 },
        );
        s.set_sink(SinkHandle::new(sink.clone()));
        let mut batch = s.write_batch();
        let h = batch.stage(recs(&[7])).unwrap();
        batch.flush().unwrap();
        assert_eq!(s.live_blocks(), 1);
        assert!(s.read_block(&h).is_ok());
        let events = sink.drain();
        assert!(
            events.iter().any(|e| matches!(e, Event::RetryAttempt { attempt: 1 })),
            "batched retry must be observable like write_block's"
        );
    }

    #[test]
    fn abandoned_write_batch_releases_staged_ids() {
        let s = store();
        {
            let mut batch = s.write_batch();
            batch.stage(recs(&[1])).unwrap();
            batch.stage(recs(&[2])).unwrap();
            assert_eq!(s.live_blocks(), 2);
            // Dropped without flush: an error-path abort.
        }
        assert_eq!(s.live_blocks(), 0, "staged ids must not leak");
        assert_eq!(s.io_snapshot().writes, 0);
    }

    /// The block's payloads sit exactly where one encoded frame of
    /// `block_size` bytes would hold them — 13 header bytes apart, in order —
    /// so together they lie inside a single `block_size` buffer.
    fn assert_backed_by_one_frame(block: &DataBlock, block_size: usize) {
        let first = block.record(0).payload.as_ptr() as usize;
        let mut expect = first;
        for r in block.iter() {
            assert_eq!(r.payload.as_ptr() as usize, expect, "payloads are not one frame's");
            expect += r.payload.len() + 13;
        }
        assert!(expect - 13 - first <= block_size - 16 - 13);
    }

    #[test]
    fn cached_blocks_are_backed_by_exactly_one_frame() {
        let dev = Arc::new(MemDevice::with_block_size(64, 256));
        let s = Store::new(Arc::clone(&dev) as Arc<dyn BlockDevice>, 2, 0);
        // Payloads that come in as views of one big foreign buffer: the
        // cached block must not keep viewing it.
        let foreign = Bytes::from(vec![7u8; 1024]);
        let records = |base: u64| -> Vec<Record> {
            (0..10)
                .map(|i| Record::put(base + i, foreign.slice(i as usize * 4..i as usize * 4 + 4)))
                .collect()
        };

        // Cached by write_block, into room.
        let h1 = s.write_block(records(0)).unwrap();
        let written = s.read_block(&h1).unwrap();
        assert_backed_by_one_frame(&written, 256);
        assert!(written.iter().all(|r| !lies_within(&r.payload, &foreign)));

        // Cached by stage, into room: after the flush the MemDevice holds the very
        // buffer the cached block views — one buffer for image and cache.
        let mut batch = s.write_batch();
        let h2 = batch.stage(records(100)).unwrap();
        batch.flush().unwrap();
        drop(batch);
        let staged = s.read_block(&h2).unwrap();
        assert_backed_by_one_frame(&staged, 256);
        let image = dev.read(h2.id).unwrap();
        assert!(staged.iter().all(|r| lies_within(&r.payload, &image)));

        // Read back through a cache miss once readers have pushed h1 out.
        // The decoded block views the frame the device returned, nothing
        // else.
        s.evict_by_reading(&[h1.id]);
        let reads = s.io_snapshot().reads;
        let missed = s.read_block(&h1).unwrap();
        assert_eq!(s.io_snapshot().reads, reads + 1, "expected a cache miss");
        assert_backed_by_one_frame(&missed, 256);
        let image = dev.read(h1.id).unwrap();
        assert!(missed.iter().all(|r| lies_within(&r.payload, &image)));
        assert!(missed.iter().eq(written.iter()));
    }

    #[test]
    fn read_repair_marks_and_reports() {
        let (dev, s) = faulty_store(FaultPlan::none().bit_flip_rate(1.0), RetryPolicy::none());
        let bad = s.write_block(recs(&[5, 9])).unwrap();
        dev.set_plan(FaultPlan::none());
        s.evict_by_reading(&[bad.id]);
        assert!(s.read_block(&bad).is_err());
        s.free_block(&bad).unwrap();
        assert_eq!(s.repaired_ids(), vec![bad.id.raw()]);
        // Repair does not clear the degraded range — the data is still lost.
        assert_eq!(s.degraded_ranges(), vec![(5, 9)]);
    }
}
