//! The tree's private view of the storage substrate: allocation + codec +
//! caching in one place.
//!
//! Every data-block write in the whole index is a finished frame
//! ([`crate::block::FrameBuilder`]) passing through the store's one admit
//! sequence — [`Store::write_frame`] or a [`WriteBatch`] — so the device's
//! write counter is exactly the paper's cost metric. Reads come in three
//! kinds: [`Store::read_block`] caches the block it fetches (scans),
//! [`Store::read_record`] wants one record of a block and, when the cache
//! has no room for the block, keeps only that (gets), and
//! [`Store::read_blocks`] caches nothing (merge inputs, which the reading
//! step frees).
//!
//! The buffer cache is one [`SieveCache`] under one byte budget,
//! `cache_blocks × block_size`, holding two kinds of entry: a whole block,
//! charged its frame's `block_size`, and one record of a block, charged its
//! payload plus [`RECORD_ENTRY_OVERHEAD`].
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
use std::sync::Arc;

use bytes::Bytes;
use observe::{Event, SinkCell};
use parking_lot::Mutex;

use sim_ssd::{BlockAllocator, BlockDevice, BlockId, MemDevice, SieveCache};

use crate::block::{BlockHandle, DataBlock, FrameBuilder};
use crate::bloom::BloomFilter;
use crate::error::{LsmError, Result};
use crate::lockorder;
use crate::record::{Key, Record};

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

/// What a cached record is charged on top of its payload: everything else
/// the entry allocates, as measured by `tests/cache_budget.rs` — two caches
/// of different budgets filled with records, the difference in live heap
/// (counted in malloc chunks) over the difference in entries. With 100-byte
/// payloads an entry occupies 301–405 B, depending on where the cache's two
/// doubling containers stand: 96 B of slab entry at a fill of 0.5–1, a
/// 33-byte bucket of the hash index at a load under 7/8, and 160 B for the
/// payload's buffer and its count (`Bytes` is an `Arc` of a `Vec<u8>` in
/// the frame pool's wrapper, a newtype that adds no byte: two allocations
/// with their headers, as measured again in PR 24). 100 + 250 is the middle
/// of that range: what the cache holds in records is its budget give or
/// take 15 %. A cached block is charged its frame alone; its index of 16 B
/// a record and its entry (a fifth more) are not.
pub const RECORD_ENTRY_OVERHEAD: usize = 250;

/// What a buffer-cache entry is of.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CacheKey {
    /// The whole block at this id.
    Block(BlockId),
    /// One record of the block that held `id` at `generation`.
    Record { id: BlockId, generation: u32, key: Key },
}

#[derive(Clone)]
enum Cached {
    Block(Arc<DataBlock>),
    /// A copy: it views no frame.
    Record(Record),
}

/// The buffer cache and what dates its record entries.
struct BufferCache {
    entries: SieveCache<CacheKey, Cached>,
    /// How often each id has gone back to the allocator (none yet for an
    /// id past the end). A record entry is keyed by its block's id *and*
    /// generation, so when an id is released every record cached under it
    /// stops matching — it is valid exactly as long as the cached block
    /// would have been — and ages out unvisited; the block that gets the
    /// id next starts with none.
    generations: Vec<u32>,
    /// What a block entry weighs: the device's block size.
    block_weight: usize,
}

impl BufferCache {
    /// Cache `block` as the block at `id`, evicting whatever has to go.
    fn insert_block(&mut self, id: BlockId, block: Arc<DataBlock>) {
        self.entries.insert_weighted(CacheKey::Block(id), Cached::Block(block), self.block_weight);
    }

    fn record_key(&self, id: BlockId, key: Key) -> CacheKey {
        let generation = self.generations.get(id.raw() as usize).copied().unwrap_or(0);
        CacheKey::Record { id, generation, key }
    }
}

/// Storage services for one LSM index.
pub struct Store {
    device: Arc<dyn BlockDevice>,
    alloc: BlockAllocator,
    cache: Mutex<BufferCache>,
    bloom_bits_per_key: usize,
    retry: RetryPolicy,
    /// Blocks that failed an integrity check: id → lost key range. Their
    /// ids are never freed or reused.
    quarantined: Mutex<BTreeMap<u64, (Key, Key)>>,
    /// Quarantined blocks a merge has since dropped from the structure.
    repaired: Mutex<BTreeSet<u64>>,
    /// Blocks referenced by the last durable manifest: trims deferred.
    protected: Mutex<HashSet<u64>>,
    /// Logically freed blocks waiting for the next checkpoint to trim.
    deferred_free: Mutex<Vec<BlockId>>,
    sink: SinkCell,
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
            }),
            bloom_bits_per_key,
            retry: RetryPolicy::default(),
            quarantined: Mutex::new(BTreeMap::new()),
            repaired: Mutex::new(BTreeSet::new()),
            protected: Mutex::new(protected),
            deferred_free: Mutex::new(Vec::new()),
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
    /// an id → `land` the frame → Bloom filter → fence handle → cache seed.
    /// [`write_frame`](Store::write_frame) lands the frame on the device at
    /// once, [`WriteBatch::stage_frame`] queues it for a batched write; if
    /// `land` fails the id is released and nothing is published.
    ///
    /// The cache is seeded with the block itself — the frame that lands and
    /// its offsets — charged `block_size`. A block is one buffer by
    /// construction: a cached block can pin nothing of the merge inputs its
    /// bytes were copied from.
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
        self.cache.lock().insert_block(id, Arc::new(block));
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

    /// Decode what a device read of `handle` returned: the block is that
    /// frame — the device's buffer is the block's buffer. Device-level
    /// corruption or a frame that fails its integrity check quarantines the
    /// block.
    fn adopt_frame(
        &self,
        handle: &BlockHandle,
        frame: sim_ssd::Result<Bytes>,
    ) -> Result<Arc<DataBlock>> {
        match frame.map_err(LsmError::from).and_then(|frame| DataBlock::decode(&frame)) {
            Ok(block) => Ok(Arc::new(block)),
            Err(LsmError::Codec(_) | LsmError::Device(sim_ssd::DeviceError::Corrupt(_))) => {
                Err(self.quarantine(handle))
            }
            Err(e) => Err(e),
        }
    }

    /// Read a block through the cache. Transient device errors are retried;
    /// corruption (device ECC or codec checksum) quarantines the block and
    /// surfaces as [`LsmError::Degraded`] naming the lost key range. Only a
    /// cached block is a hit — cached records of it are no use to a reader
    /// of the whole — and a miss caches the block.
    pub fn read_block(&self, handle: &BlockHandle) -> Result<Arc<DataBlock>> {
        if let Some(Cached::Block(hit)) = self.cache.lock().entries.get(&CacheKey::Block(handle.id))
        {
            return Ok(hit);
        }
        let block = self.adopt_frame(handle, self.with_retries(|| self.device.read(handle.id)))?;
        self.cache.lock().insert_block(handle.id, Arc::clone(&block));
        Ok(block)
    }

    /// `key`'s record in the block at `handle`, if it has one: what a get
    /// wants of a block. One cache lookup — a hit when the cached block
    /// answers or, failing that, a cached record of it — and on a miss one
    /// device read, decoded and checked like [`read_block`]'s. What the miss
    /// leaves behind depends on room: while the whole block fits without
    /// evicting anything it is cached, as `read_block` would; once the
    /// cache is full only the record found is — a copy of its payload,
    /// charged that plus [`RECORD_ENTRY_OVERHEAD`] — and the frame is
    /// dropped, so the returned record pins nothing. A key the block does
    /// not hold leaves nothing. (Where a record would be charged no less
    /// than its block — blocks of a few hundred bytes, payloads that fill
    /// one — the block is what a found key leaves, at any fill.)
    ///
    /// [`read_block`]: Store::read_block
    pub fn read_record(&self, handle: &BlockHandle, key: Key) -> Result<Option<Record>> {
        let record_key = {
            let mut cache = self.cache.lock();
            if let Some(Cached::Block(block)) = cache.entries.hit(&CacheKey::Block(handle.id)) {
                drop(cache);
                return Ok(block.find(key));
            }
            let record_key = cache.record_key(handle.id, key);
            if let Some(Cached::Record(record)) = cache.entries.get(&record_key) {
                return Ok(Some(record));
            }
            record_key
        };
        let block = self.adopt_frame(handle, self.with_retries(|| self.device.read(handle.id)))?;
        let found = block.find(key);
        let mut cache = self.cache.lock();
        let pressed = cache.entries.weight() + cache.block_weight > cache.entries.capacity();
        let record_weight = |r: &Record| r.payload.len() + RECORD_ENTRY_OVERHEAD;
        match found {
            Some(record) if pressed && record_weight(&record) < cache.block_weight => {
                let copy = Record { payload: Bytes::copy_from_slice(&record.payload), ..record };
                let entry = Cached::Record(copy.clone());
                cache.entries.insert_weighted(record_key, entry, record_weight(&copy));
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

    /// Batched read for the merge stream and compaction: fetch several
    /// blocks with (at most) one coalesced device call for all cache
    /// misses, returning one result per handle, in order.
    ///
    /// Per block this is [`read_block`] — whole cached blocks as hits,
    /// transient-error retries, corruption quarantine, `Degraded` errors —
    /// except that a miss is *not* inserted into the cache. Every block a merge or a
    /// compaction decodes is retired by that same step and dropped from the
    /// cache by [`free_all`](Store::free_all); caching it would only evict
    /// the output blocks the step seeds, which the next merge and the next
    /// get do want.
    ///
    /// [`read_block`]: Store::read_block
    pub fn read_blocks(&self, handles: &[BlockHandle]) -> Vec<Result<Arc<DataBlock>>> {
        let mut out: Vec<Option<Result<Arc<DataBlock>>>> = {
            let mut cache = self.cache.lock();
            let mut cached = |h: &BlockHandle| match cache.entries.get(&CacheKey::Block(h.id)) {
                Some(Cached::Block(block)) => Some(Ok(block)),
                _ => None,
            };
            handles.iter().map(&mut cached).collect()
        };
        let mut miss_idx: Vec<usize> = (0..out.len()).filter(|&i| out[i].is_none()).collect();
        if !miss_idx.is_empty() {
            // Reads within a batch are mutually unordered, so issue the
            // misses to the device sorted by id: handles arrive in key
            // order, but physical adjacency (what `read_many` coalesces)
            // follows allocation order, which key order scrambles.
            miss_idx.sort_by_key(|&i| handles[i].id.raw());
            let ids: Vec<BlockId> = miss_idx.iter().map(|&i| handles[i].id).collect();
            lockorder::assert_io_allowed("a batched device read");
            let frames = self.device.read_many(&ids);
            for (&i, first) in miss_idx.iter().zip(frames) {
                let frame = self.finish_retries(first, || self.device.read(handles[i].id));
                out[i] = Some(self.adopt_frame(&handles[i], frame));
            }
        }
        out.into_iter().map(|r| r.expect("every slot filled")).collect()
    }

    /// Start a write batch: stage several `write_block`s and land them
    /// with one coalesced device call. See [`WriteBatch`].
    pub fn write_batch(&self) -> WriteBatch<'_> {
        WriteBatch { store: self, staged: Vec::new() }
    }

    /// Record `handle` as lost and build the `Degraded` error for it.
    fn quarantine(&self, handle: &BlockHandle) -> LsmError {
        let fresh =
            self.quarantined.lock().insert(handle.id.raw(), (handle.min, handle.max)).is_none();
        if fresh {
            let block = handle.id.raw();
            self.sink.emit_with(|| Event::BlockQuarantined { block });
        }
        LsmError::Degraded { ranges: vec![(handle.min, handle.max)] }
    }

    /// The one way an id goes back to the allocator: its generation moves
    /// on first, so no record cached for the block that had the id can
    /// answer for the next block to get it.
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
    ///
    /// Each of the cache, the quarantine list and the protected set is
    /// locked once per call, not once per block, and none is held across a
    /// device call. Every block is attempted; the first error is returned.
    pub fn free_all(&self, handles: &[BlockHandle]) -> Result<()> {
        {
            let mut cache = self.cache.lock();
            for h in handles {
                cache.entries.remove(&CacheKey::Block(h.id));
            }
        }
        let mut trim: Vec<BlockId> = Vec::with_capacity(handles.len());
        {
            let quarantined = self.quarantined.lock();
            let protected = self.protected.lock();
            for h in handles {
                let id = h.id.raw();
                if quarantined.contains_key(&id) {
                    if self.repaired.lock().insert(id) {
                        self.sink.emit_with(|| Event::ReadRepair { block: id });
                    }
                } else if protected.contains(&id) {
                    self.deferred_free.lock().push(h.id);
                } else {
                    trim.push(h.id);
                }
            }
        }
        let mut first_err = Ok(());
        for id in trim {
            let freed = self.with_retries(|| self.device.trim(id)).map(|()| self.release(id));
            if first_err.is_ok() {
                first_err = freed.map_err(LsmError::from);
            }
        }
        first_err
    }

    /// Take back a block that was admitted but is not to be: its cache seed
    /// and its id.
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
    /// checkpoint, and the first error is returned.
    pub fn finish_checkpoint<I: IntoIterator<Item = u64>>(&self, ids: I) -> Result<()> {
        let new_protected: HashSet<u64> = ids.into_iter().collect();
        let pending = {
            let mut protected = self.protected.lock();
            *protected = new_protected;
            let mut deferred = self.deferred_free.lock();
            let (free_now, keep): (Vec<BlockId>, Vec<BlockId>) =
                deferred.drain(..).partition(|id| !protected.contains(&id.raw()));
            *deferred = keep;
            free_now
        };
        let mut first_err = Ok(());
        for id in pending {
            match self.with_retries(|| self.device.trim(id)) {
                Ok(()) => self.release(id),
                Err(e) => {
                    self.deferred_free.lock().push(id);
                    if first_err.is_ok() {
                        first_err = Err(e.into());
                    }
                }
            }
        }
        first_err
    }

    /// Key ranges that may have been lost to quarantined blocks, in block
    /// order. Empty on a healthy tree.
    pub fn degraded_ranges(&self) -> Vec<(Key, Key)> {
        self.quarantined.lock().values().copied().collect()
    }

    /// Ids of quarantined blocks (never reused).
    pub fn quarantined_ids(&self) -> Vec<u64> {
        self.quarantined.lock().keys().copied().collect()
    }

    /// Ids of quarantined blocks already dropped from the structure by a
    /// merge. A level referencing one of these is an invariant violation.
    pub fn repaired_ids(&self) -> Vec<u64> {
        self.repaired.lock().iter().copied().collect()
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
/// until `flush`. Callers must flush before (a) freeing a staged block,
/// (b) reading one back when it may have been evicted from the cache, or
/// (c) publishing the handles into the tree. A batch dropped with staged
/// blocks (an error-path abort) releases their ids and cache entries —
/// the frames never reached the device, so the handles must die with it.
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
    /// The id is allocated and the cache seeded now; the device write lands
    /// at [`flush`](WriteBatch::flush).
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
        for _ in 0..5 {
            s.read_block(&h).unwrap();
        }
        // write_block seeds the cache, so no device read at all.
        assert_eq!(s.io_snapshot().reads, 0);
        assert!(s.cache_stats().hits >= 5);
    }

    #[test]
    fn cache_miss_goes_to_device() {
        let dev = Arc::new(MemDevice::with_block_size(64, 256));
        let s = Store::new(dev, 1, 0); // cache of one block
        let h1 = s.write_block(recs(&[1])).unwrap();
        let _h2 = s.write_block(recs(&[2])).unwrap(); // evicts h1
        s.read_block(&h1).unwrap();
        assert_eq!(s.io_snapshot().reads, 1);
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
        dev.set_plan(FaultPlan::none().fail_read_at(1));
        // Evict the cache so the read really hits the device.
        for k in 0..8u64 {
            s.write_block(recs(&[100 + k])).unwrap();
        }
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
        for k in 0..8u64 {
            s.write_block(recs(&[100 + k])).unwrap();
        }
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

    /// 1 KiB blocks, so that a record entry (4-byte payloads) is the lighter
    /// thing to keep, and a cache of three of them.
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

    #[test]
    fn a_pressed_miss_keeps_the_record_and_a_miss_with_room_the_block() {
        let (_dev, s) = pressed_store();
        // Four blocks through a cache of three: the first is pushed out and
        // the cache is left full.
        let a = s.write_block(versioned(&[1, 2, 3], 1)).unwrap();
        let others: Vec<BlockHandle> =
            (10..13u64).map(|k| s.write_block(versioned(&[k], 1)).unwrap()).collect();
        let b = &others[2];
        let (frame_a, frame_b) = (s.device.read(a.id).unwrap(), s.device.read(b.id).unwrap());
        let (reads_before, before) = (s.io_snapshot().reads, s.cache_stats());
        let reads = || s.io_snapshot().reads - reads_before;

        let found = s.read_record(&a, 2).unwrap().expect("present");
        assert_eq!((reads(), &found.payload[..]), (1, &[1u8; 4][..]));
        assert!(!lies_within(&found.payload, &frame_a), "a pressed miss returns a copy");
        // What stayed is that record: it answers again, its neighbour does not.
        assert_eq!(s.read_record(&a, 2).unwrap(), Some(found));
        assert_eq!(reads(), 1);
        assert_eq!(s.read_record(&a, 3).unwrap(), Some(Record::put(3, vec![1u8; 4])));
        assert_eq!(reads(), 2);
        // A key the block does not hold leaves nothing behind.
        let resident = s.cache_stats().resident;
        assert_eq!(s.read_record(&a, 7).unwrap(), None);
        assert_eq!((reads(), s.cache_stats().resident), (3, resident));
        // One lookup a call, whatever answered it.
        let after = s.cache_stats();
        assert_eq!((after.hits - before.hits, after.misses - before.misses), (1, 3));
        assert!(after.resident <= after.capacity);
        // A whole-block reader gets nothing out of cached records.
        assert_eq!(s.read_block(&a).unwrap().len(), 3);
        assert_eq!(reads(), 4);

        // Room again — three blocks freed: the next miss keeps its block,
        // which then answers for every key, found or not.
        s.free_all(&others[..2]).unwrap();
        s.free_block(&a).unwrap();
        s.cache.lock().entries.remove(&CacheKey::Block(b.id));
        let found = s.read_record(b, 12).unwrap().expect("present");
        assert_eq!(reads(), 5);
        assert!(lies_within(&found.payload, &frame_b), "a view of the cached block's frame");
        assert_eq!(s.read_record(b, 13).unwrap(), None);
        assert_eq!(reads(), 5);
    }

    /// The allocator reuses ids LIFO. A record cached for the block that
    /// had an id must not answer for the block that has it next, although
    /// nothing visits the cache's records when a block is freed.
    #[test]
    fn a_record_cached_for_a_freed_block_does_not_answer_for_the_next_block_at_its_id() {
        let (_dev, s) = pressed_store();
        let old = s.write_block(versioned(&[1, 2, 3], 1)).unwrap();
        for k in 10..13u64 {
            s.write_block(versioned(&[k], 1)).unwrap();
        }
        assert_eq!(s.read_record(&old, 2).unwrap().unwrap().payload[..], [1u8; 4]);
        assert_eq!(s.read_record(&old, 2).unwrap().unwrap().payload[..], [1u8; 4]);
        assert_eq!(s.io_snapshot().reads, 1, "the second came from the cached record");
        s.free_block(&old).unwrap();
        let new = s.write_block(versioned(&[2, 5], 2)).unwrap();
        assert_eq!(new.id, old.id, "the freed id is the next one handed out");
        // Push the new block's seed out of the cache; the old block's
        // record, visited, outlasts it.
        for k in 20..22u64 {
            s.write_block(versioned(&[k], 1)).unwrap();
        }
        let stale = CacheKey::Record { id: old.id, generation: 0, key: 2 };
        {
            let cache = s.cache.lock();
            assert!(cache.entries.peek(&CacheKey::Block(new.id)).is_none(), "seed still cached");
            assert!(cache.entries.peek(&stale).is_some(), "the stale record is gone: no test");
        }
        let reads = s.io_snapshot().reads;
        assert_eq!(s.read_record(&new, 2).unwrap().unwrap().payload[..], [2u8; 4]);
        assert_eq!(s.io_snapshot().reads, reads + 1, "answered by the device, not the cache");
        assert_eq!(s.read_record(&new, 2).unwrap().unwrap().payload[..], [2u8; 4]);
        assert_eq!(s.io_snapshot().reads, reads + 1, "and cached under the id's new generation");
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
        match s.read_record(&bad, 40) {
            Err(LsmError::Degraded { ranges }) => assert_eq!(ranges, vec![(40, 60)]),
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert_eq!(s.quarantined_ids(), vec![bad.id.raw()]);
        assert!(sink.drain().iter().any(|e| matches!(e, Event::BlockQuarantined { .. })));
        assert!(s.read_record(&good[0], 0).unwrap().is_some(), "healthy blocks unaffected");
        let live = s.live_blocks();
        s.free_block(&bad).unwrap();
        assert_eq!(s.live_blocks(), live, "quarantined id must not be recycled");
    }

    #[test]
    fn read_blocks_mixes_hits_misses_and_degraded() {
        let (dev, s) = faulty_store(FaultPlan::none(), RetryPolicy::none());
        let a = s.write_block(recs(&[1, 2])).unwrap();
        dev.set_plan(FaultPlan::none().bit_flip_rate(1.0));
        let bad = s.write_block(recs(&[10, 20])).unwrap();
        dev.set_plan(FaultPlan::none());
        // Evict a and bad (cache of 4).
        for k in 0..4u64 {
            s.write_block(recs(&[100 + k])).unwrap();
        }
        let c = s.write_block(recs(&[40])).unwrap(); // cached for sure
        let (reads_before, cache_before) = (s.io_snapshot().reads, s.cache_stats());
        let results = s.read_blocks(&[a.clone(), bad.clone(), c.clone()]);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().unwrap().min_key(), 1);
        match &results[1] {
            Err(LsmError::Degraded { ranges }) => assert_eq!(ranges, &vec![(10, 20)]),
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert_eq!(results[2].as_ref().unwrap().min_key(), 40);
        // c was a cache hit; a and bad went to the device, but the corrupt
        // read errors out before the device counts it — only a's counts.
        assert_eq!(s.io_snapshot().reads - reads_before, 1);
        assert_eq!(s.quarantined_ids(), vec![bad.id.raw()]);
        // The hit was served by the cache; the misses were not put into it
        // (the cache is full: an insertion would have evicted something),
        // so reading a again goes to the device again.
        let cache_after = s.cache_stats();
        assert_eq!(cache_after.hits, cache_before.hits + 1);
        assert_eq!(cache_after.evictions, cache_before.evictions, "a batched miss was cached");
        assert!(s.read_block(&a).is_ok());
        assert_eq!(s.io_snapshot().reads - reads_before, 2);
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
        // seeded block must not keep viewing it.
        let foreign = Bytes::from(vec![7u8; 1024]);
        let records = |base: u64| -> Vec<Record> {
            (0..10)
                .map(|i| Record::put(base + i, foreign.slice(i as usize * 4..i as usize * 4 + 4)))
                .collect()
        };

        // Seeded by write_block.
        let h1 = s.write_block(records(0)).unwrap();
        let seeded = s.read_block(&h1).unwrap();
        assert_backed_by_one_frame(&seeded, 256);
        assert!(seeded.iter().all(|r| !lies_within(&r.payload, &foreign)));

        // Seeded by stage: after the flush the MemDevice holds the very
        // buffer the cached block views — one buffer for image and cache.
        let mut batch = s.write_batch();
        let h2 = batch.stage(records(100)).unwrap();
        batch.flush().unwrap();
        drop(batch);
        let staged = s.read_block(&h2).unwrap();
        assert_backed_by_one_frame(&staged, 256);
        let image = dev.read(h2.id).unwrap();
        assert!(staged.iter().all(|r| lies_within(&r.payload, &image)));

        // Read back through a cache miss: h1 was evicted by now (capacity
        // 2, and h2 plus one more block are newer). The decoded block views
        // the frame the device returned, nothing else.
        let _h3 = s.write_block(records(200)).unwrap();
        let reads = s.io_snapshot().reads;
        let missed = s.read_block(&h1).unwrap();
        assert_eq!(s.io_snapshot().reads, reads + 1, "expected a cache miss");
        assert_backed_by_one_frame(&missed, 256);
        let image = dev.read(h1.id).unwrap();
        assert!(missed.iter().all(|r| lies_within(&r.payload, &image)));
        assert!(missed.iter().eq(seeded.iter()));
    }

    #[test]
    fn read_repair_marks_and_reports() {
        let (dev, s) = faulty_store(FaultPlan::none().bit_flip_rate(1.0), RetryPolicy::none());
        let bad = s.write_block(recs(&[5, 9])).unwrap();
        dev.set_plan(FaultPlan::none());
        for k in 0..8u64 {
            s.write_block(recs(&[100 + k])).unwrap();
        }
        assert!(s.read_block(&bad).is_err());
        s.free_block(&bad).unwrap();
        assert_eq!(s.repaired_ids(), vec![bad.id.raw()]);
        // Repair does not clear the degraded range — the data is still lost.
        assert_eq!(s.degraded_ranges(), vec![(5, 9)]);
    }
}
