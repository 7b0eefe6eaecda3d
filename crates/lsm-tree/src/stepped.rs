//! Stepped-Merge — the multi-run-per-level baseline (§VI).
//!
//! Cassandra's and HBase's default merge options are "basically
//! Stepped-Merge" (Jagadish et al., VLDB 1997): each level accumulates up
//! to `k` immutable sorted runs; when the k-th run arrives, all k runs
//! are merge-sorted into a single run one level down. Every record is
//! written once per level, so merge cost is far below leveled LSM — but a
//! lookup must now examine up to `k` runs *per level*, which is exactly
//! the trade the paper declines: "In reducing merge costs, however,
//! Stepped-Merge sacrifices lookups. In contrast, partial merges … reduce
//! merge cost without penalizing lookups; we follow the same philosophy."
//!
//! This implementation shares the storage substrate and cost accounting
//! with [`crate::LsmTree`] so the two designs are compared on identical
//! terms (`ext_stepped_merge` in the bench crate).

use std::sync::Arc;

use bytes::Bytes;
use observe::{Event, SinkHandle, SpanOp};

use sim_ssd::BlockDevice;

use crate::config::LsmConfig;
use crate::error::{LsmError, Result};
use crate::iter::{lookup, Merge, Source};
use crate::level::Level;
use crate::memtable::Memtable;
use crate::merge::StepBlocks;
use crate::record::{Key, Record, Request};
use crate::stats::TreeStats;
use crate::store::Store;
use crate::tree::TreeOptions;

/// A Stepped-Merge index: levels of up to `k` runs each.
pub struct SteppedMergeTree {
    cfg: LsmConfig,
    /// Fan-in: runs accumulated per level before merging down.
    k: usize,
    store: Store,
    mem: Memtable,
    /// `levels[i]` holds the runs of on-SSD level `i+1`, newest last. A run
    /// is a [`Level`] built by `push`: sorted disjoint blocks and the
    /// packed search index a lookup probes.
    levels: Vec<Vec<Level>>,
    /// Changes of `levels` so far: what the buffer cache dates the rows of
    /// level walks by (`Store::cached_row`), so every change of the runs
    /// moves it on.
    epoch: u64,
    stats: TreeStats,
    sink: SinkHandle,
}

impl SteppedMergeTree {
    /// Create over an existing device. The fan-in `k ≥ 2` comes from
    /// [`TreeOptions::stepped_fan_in`](crate::TreeOptions) — like the
    /// leveled tree, the stepped baseline is configured exclusively through
    /// [`TreeOptions::builder`](crate::TreeOptions::builder), which also
    /// routes the sink and retry policy. (The merge-policy and ledger
    /// options do not apply: stepped merges are always full-level, so
    /// there is no per-merge decision to record.)
    pub fn new(cfg: LsmConfig, opts: TreeOptions, device: Arc<dyn BlockDevice>) -> Result<Self> {
        let cfg = cfg.validated()?;
        let k = opts.stepped_fan_in;
        if k < 2 {
            return Err(LsmError::Config("stepped-merge fan-in must be ≥ 2".into()));
        }
        if device.block_size() != cfg.block_size {
            return Err(LsmError::Config(format!(
                "device block size {} != configured {}",
                device.block_size(),
                cfg.block_size
            )));
        }
        let store =
            Store::new(device, cfg.cache_blocks, cfg.bloom_bits_per_key).with_retry(opts.retry);
        let mut tree = SteppedMergeTree {
            cfg,
            k,
            store,
            mem: Memtable::new(),
            levels: Vec::new(),
            epoch: 0,
            stats: TreeStats::default(),
            sink: SinkHandle::none(),
        };
        tree.set_sink(opts.sink);
        Ok(tree)
    }

    /// Register (or detach, with [`SinkHandle::none`]) the event sink —
    /// same contract as [`crate::LsmTree::set_sink`]: flush/merge events
    /// and spans from this tree plus the store's cache and device events
    /// all flow to the one sink, so the baseline traces on equal terms
    /// with the leveled tree.
    pub fn set_sink(&mut self, sink: SinkHandle) {
        self.store.set_sink(sink.clone());
        self.sink = sink;
    }

    /// The currently registered sink (detached by default).
    pub fn sink(&self) -> &SinkHandle {
        &self.sink
    }

    /// Create over a fresh in-memory device (fan-in and the rest from
    /// `opts`, as in [`SteppedMergeTree::new`]).
    pub fn with_mem_device(cfg: LsmConfig, opts: TreeOptions, device_blocks: u64) -> Result<Self> {
        let dev = Arc::new(sim_ssd::MemDevice::with_block_size(device_blocks, cfg.block_size));
        Self::new(cfg, opts, dev)
    }

    /// Insert or update.
    pub fn put(&mut self, key: Key, payload: impl Into<Bytes>) -> Result<()> {
        self.apply(Request::Put(key, payload.into()))
    }

    /// Delete.
    pub fn delete(&mut self, key: Key) -> Result<()> {
        self.apply(Request::Delete(key))
    }

    /// Apply one request: a put whose payload is larger than the
    /// configured `payload_size` is refused, as the leveled tree refuses it.
    pub fn apply(&mut self, req: Request) -> Result<()> {
        crate::tree::check_request(self.cfg.payload_size, &req)?;
        match &req {
            Request::Put(..) => self.stats.puts += 1,
            Request::Delete(_) => self.stats.deletes += 1,
        }
        self.mem.apply(req);
        if self.mem.len() >= self.cfg.l0_capacity_records() {
            self.flush_memtable()?;
        }
        Ok(())
    }

    /// Force the (possibly non-full) memtable out as a run, cascading any
    /// level merges it triggers. A no-op when the memtable is empty. All or
    /// nothing: the cascade is written, then installed (memory only), then
    /// its inputs are freed; an error frees what was written instead.
    pub fn flush_memtable(&mut self) -> Result<()> {
        if self.mem.is_empty() {
            return Ok(());
        }
        let _cascade = self.sink.span(SpanOp::cascade());
        let mut blocks = StepBlocks::default();
        match self.write_cascade(&mut blocks) {
            Ok((depth, run)) => {
                self.levels.resize_with(self.levels.len().max(depth + 1), Vec::new);
                self.levels[..depth].iter_mut().for_each(Vec::clear);
                if !run.is_empty() {
                    self.levels[depth].push(run);
                }
                self.epoch += 1;
                self.mem = Memtable::new();
                self.store.free_all(&blocks.retired)
            }
            Err(e) => {
                let _ = self.store.free_all(&blocks.created);
                Err(e)
            }
        }
    }

    /// Write the memtable as a run of `levels[0]`; while the run is the
    /// k-th of its level, merge-sort all k into one run a level down.
    /// Returns `(depth, run)`: `levels[..depth]` are merged away and `run`
    /// joins `levels[depth]`. Changes only `blocks` and the counters.
    fn write_cascade(&mut self, blocks: &mut StepBlocks) -> Result<(usize, Level)> {
        let b = self.cfg.block_capacity();
        let mut run = {
            let _span = self.sink.span(SpanOp::flush(true));
            let records = self.mem.len() as u64;
            self.sink.emit_with(|| Event::MemtableFlush { records, full: true });
            let records = self.mem.iter().cloned().map(Ok);
            write_run(&self.store, &mut self.stats, b, 1, records, blocks)?
        };
        let mut depth = 0;
        while !run.is_empty() && self.levels.get(depth).map_or(0, Vec::len) + 1 >= self.k {
            let target_paper = depth + 2;
            // Stepped merges are always "full": all k runs at once.
            let _span = self.sink.span(SpanOp::merge(target_paper, true));
            self.sink.emit_with(|| Event::MergeStart { target_level: target_paper, full: true });
            // Newest first: the run just written, then the level's, youngest to oldest.
            let inputs: Vec<&Level> =
                std::iter::once(&run).chain(self.levels[depth].iter().rev()).collect();
            let src_records: u64 = inputs.iter().map(|r| r.records()).sum();
            let reads: u64 = inputs.iter().map(|r| r.num_blocks() as u64).sum();
            // Tombstones can be dropped when merging into the deepest
            // populated level (nothing below to cancel).
            let is_deepest = self.levels.iter().skip(depth + 1).all(Vec::is_empty);
            let sources =
                inputs.iter().map(|r| Source::blocks(&self.store, r.handles(), 0, Key::MAX));
            let merged = Merge::new(sources.collect())
                .filter(|r| !matches!(r, Ok(r) if is_deepest && r.is_tombstone()));
            let output = write_run(&self.store, &mut self.stats, b, target_paper, merged, blocks)?;
            // Reads are counted at the level they came out of.
            self.stats.level_mut(depth + 1).blocks_read += reads;
            inputs.iter().for_each(|r| blocks.retired.extend_from_slice(r.handles()));
            self.sink.emit_with(|| Event::MergeFinish {
                target_level: target_paper,
                full: true,
                src_records,
                writes: output.num_blocks() as u64,
                reads,
                preserved: 0,
                max_key: output.max_key().unwrap_or(0),
            });
            (run, depth) = (output, depth + 1);
        }
        Ok((depth, run))
    }

    /// Point lookup: memtable, then every level's runs newest-first.
    pub fn get(&self, key: Key) -> Result<Option<Bytes>> {
        let _span = self.sink.span(SpanOp::lookup());
        let runs = self.levels.iter().flat_map(|level| level.iter().rev());
        lookup([&self.mem], &self.store, runs, self.epoch, key, Some(&self.stats))
    }

    /// Cost counters (same shape as the LSM-tree's).
    pub fn stats(&self) -> &TreeStats {
        &self.stats
    }

    /// Storage services.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Runs per level, top to bottom.
    pub fn run_counts(&self) -> Vec<usize> {
        self.levels.iter().map(Vec::len).collect()
    }

    /// Maximum number of sorted runs a lookup may probe (L0 excluded).
    pub fn lookup_fanout(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Total records (shadowed versions included).
    pub fn record_count(&self) -> u64 {
        self.mem.len() as u64 + self.levels.iter().flatten().map(Level::records).sum::<u64>()
    }
}

/// Write `records` — ordered, keys unique — as one run of `paper_level`,
/// `b` to a block, and count it there. Blocks that reached the device are
/// in `blocks.created`, also when this fails.
fn write_run(
    store: &Store,
    stats: &mut TreeStats,
    b: usize,
    paper_level: usize,
    mut records: impl Iterator<Item = Result<Record>>,
    blocks: &mut StepBlocks,
) -> Result<Level> {
    let mut run = Level::new();
    loop {
        let chunk: Vec<Record> = records.by_ref().take(b).collect::<Result<_>>()?;
        if chunk.is_empty() {
            break;
        }
        let handle = store.write_block(chunk)?;
        blocks.created.push(handle.clone());
        run.push(handle);
    }
    let ls = stats.level_mut(paper_level);
    ls.blocks_written += run.num_blocks() as u64;
    ls.merges_in += 1;
    ls.records_in += run.records();
    Ok(run)
}

impl crate::api::WriteApi for SteppedMergeTree {
    fn apply(&mut self, req: Request) -> Result<()> {
        SteppedMergeTree::apply(self, req)
    }

    fn flush(&mut self) -> Result<()> {
        self.flush_memtable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{CachedRow, RowHits};

    fn tiny() -> SteppedMergeTree {
        let cfg = LsmConfig {
            block_size: 256,
            payload_size: 4,
            k0_blocks: 2,
            gamma: 4, // unused by stepped-merge except capacity math
            cache_blocks: 64,
            merge_rate: 0.25,
            ..LsmConfig::default()
        };
        SteppedMergeTree::with_mem_device(
            cfg,
            TreeOptions::builder().stepped_fan_in(3).build(),
            1 << 16,
        )
        .unwrap()
    }

    #[test]
    fn stepped_merge_writes_less_than_leveled_lsm() {
        // The §VI trade: stepped-merge writes each record ~once per level;
        // leveled LSM rewrites the next level repeatedly.
        let cfg = LsmConfig {
            block_size: 256,
            payload_size: 4,
            k0_blocks: 2,
            gamma: 4,
            cache_blocks: 64,
            merge_rate: 0.25,
            ..LsmConfig::default()
        };
        let mut sm = SteppedMergeTree::with_mem_device(
            cfg.clone(),
            TreeOptions::builder().stepped_fan_in(4).build(),
            1 << 16,
        )
        .unwrap();
        let mut lsm =
            crate::LsmTree::with_mem_device(cfg, crate::TreeOptions::default(), 1 << 16).unwrap();
        for k in 0..8_000u64 {
            let key = k.wrapping_mul(2_654_435_761) % 1_000_000;
            sm.put(key, vec![1u8; 4]).unwrap();
            lsm.put(key, vec![1u8; 4]).unwrap();
        }
        let w_sm = sm.stats().total_blocks_written();
        let w_lsm = lsm.stats().total_blocks_written();
        assert!(w_sm < w_lsm, "stepped-merge {w_sm} should write less than leveled {w_lsm}");
        // …and the price: more runs to probe per lookup.
        assert!(sm.lookup_fanout() >= 2);
    }

    /// A flush or a merge that fails part-way — the memtable's run written
    /// or not, some of the merged run written, an input block unreadable —
    /// changes nothing: not the runs, not what a get sees, and no block is
    /// left allocated that no run references. The next request finishes it.
    #[test]
    fn a_failed_flush_or_merge_loses_nothing_and_leaks_nothing() {
        use crate::store::RetryPolicy;
        use sim_ssd::{FaultDevice, FaultPlan, MemDevice};
        let tape: Vec<Request> = (0..1_500u64)
            .map(|i| match i.wrapping_mul(2_654_435_761) % 900 {
                k if i % 7 == 3 => Request::Delete(k),
                k => Request::Put(k, Bytes::from(vec![i as u8; 4])),
            })
            .collect();
        let (mut failed_flushes, mut failed_merges) = (0, 0);
        for (nth, reads) in (1..120u64).flat_map(|nth| [(nth, false), (nth * 3, true)]) {
            let dev =
                Arc::new(FaultDevice::new(Arc::new(MemDevice::with_block_size(1 << 12, 256)), nth));
            // A cache of one block: merges read their inputs from the device.
            let cfg = LsmConfig { cache_blocks: 1, ..tiny().cfg };
            let opts = TreeOptions::builder().stepped_fan_in(3).retry(RetryPolicy::none()).build();
            let mut t = SteppedMergeTree::new(cfg, opts, dev.clone()).unwrap();
            dev.set_plan(match reads {
                true => FaultPlan::none().fail_read_at(nth),
                false => FaultPlan::none().fail_write_at(nth),
            });
            let mut model = std::collections::BTreeMap::new();
            let mut failures = 0;
            for req in &tape {
                let before = t.run_counts();
                let outcome = t.apply(req.clone());
                // Buffered either way: the flush comes after the memtable.
                match req {
                    Request::Put(k, v) => model.insert(*k, Some(v.clone())),
                    Request::Delete(k) => model.insert(*k, None),
                };
                if outcome.is_ok() {
                    continue;
                }
                failures += 1;
                let merging = before.first().is_some_and(|&runs| runs + 1 >= 3);
                (failed_flushes, failed_merges) =
                    (failed_flushes + u32::from(!merging), failed_merges + u32::from(merging));
                assert_eq!(t.run_counts(), before, "{nth} {reads}: runs changed");
                let referenced: usize = t.levels.iter().flatten().map(Level::num_blocks).sum();
                assert_eq!(t.store().live_blocks(), referenced as u64, "{nth} {reads}: leak");
                for (k, v) in &model {
                    assert_eq!(t.get(*k).unwrap(), *v, "{nth} {reads}: key {k} after the error");
                }
            }
            assert!(failures <= 1, "{nth} {reads}: one fault, {failures} errors");
            dev.set_plan(FaultPlan::none()); // a fault the tape never reached
            for (k, v) in &model {
                assert_eq!(t.get(*k).unwrap(), *v, "{nth} {reads}: key {k} at the end");
            }
            let referenced: usize = t.levels.iter().flatten().map(Level::num_blocks).sum();
            assert_eq!(
                t.store().live_blocks(),
                referenced as u64,
                "{nth} {reads}: leak at the end"
            );
            assert!(
                t.run_counts().iter().all(|&runs| runs < 3),
                "{nth} {reads}: {:?}",
                t.run_counts()
            );
        }
        assert!(failed_flushes > 20 && failed_merges > 100, "{failed_flushes} / {failed_merges}");
    }

    /// What a merge does to the block ids of its inputs, by hand so that
    /// the ids are known: the run that held key 2 is freed and the next run
    /// written takes its id over, covering key 2 again. Each swap of the
    /// runs moves the epoch on, as every real change of them does, and the
    /// freed id's generation moves on with it, so the row a get kept over
    /// the old run answers no get over the new one — not for the runs, and
    /// not for the block at that id.
    #[test]
    fn a_get_is_not_answered_by_a_row_of_the_runs_before() {
        let cfg = LsmConfig { block_size: 1024, cache_blocks: 3, ..tiny().cfg };
        let opts = TreeOptions::builder().stepped_fan_in(3).build();
        let mut t = SteppedMergeTree::with_mem_device(cfg, opts, 64).unwrap();
        let block = |t: &SteppedMergeTree, keys: &[Key], version: u8| {
            let records = keys.iter().map(|&k| Record::put(k, vec![version; 4])).collect();
            t.store.write_block(records).unwrap()
        };
        let swap_runs = |t: &mut SteppedMergeTree, handle: &crate::BlockHandle| {
            let mut run = Level::new();
            run.push(handle.clone());
            t.levels = vec![vec![run]];
            t.epoch += 1;
        };
        let old = block(&t, &[1, 2, 3], 1);
        swap_runs(&mut t, &old);
        // A cache of three blocks, full of other blocks: the get reads the
        // device and keeps the row; the next get finds that.
        t.store.evict_by_reading(&[old.id]);
        let reads = t.store.io_snapshot().reads;
        assert_eq!(t.get(2).unwrap().as_deref(), Some(&[1u8; 4][..]));
        assert_eq!(t.get(2).unwrap().as_deref(), Some(&[1u8; 4][..]));
        assert_eq!((t.store.io_snapshot().reads - reads, t.store.row_hits().current), (1, 1));
        // A put to the key is answered from the memtable, over the row.
        t.mem.apply(Request::Put(2, Bytes::from(vec![3u8; 4])));
        assert_eq!(t.get(2).unwrap().as_deref(), Some(&[3u8; 4][..]));
        t.mem = Memtable::new();
        t.store.free_block(&old).unwrap();
        let new = block(&t, &[2, 5], 2);
        assert_eq!(new.id, old.id);
        swap_runs(&mut t, &new);
        // The new block is out of the cache (written into a full one, it
        // never entered); the old run's row, visited, is still there
        // (`store.rs` runs these steps with the cache open and checks that
        // it is).
        t.store.evict_by_reading(&[new.id]);
        assert_eq!(t.get(2).unwrap().as_deref(), Some(&[2u8; 4][..]));
        assert_eq!(t.get(3).unwrap(), None);
        assert_eq!(t.get(5).unwrap().as_deref(), Some(&[2u8; 4][..]));
        assert_eq!(t.store.io_snapshot().reads - reads, 4, "one pressed miss a get");
        assert_eq!(t.store.row_hits(), RowHits { current: 1, earlier: 0 });
        assert_eq!(t.stats().lookup_block_reads(), 5, "a row hit counts the block it saved");
    }

    /// The same through a real flush: it changes the runs, so it moves the
    /// epoch on, and the row a get kept before it — still cached, and its
    /// block still live — does not answer over the newer version the flush
    /// wrote, which the walk meets first.
    #[test]
    fn a_flush_moves_the_epoch_on() {
        let cfg = LsmConfig { block_size: 1024, cache_blocks: 8, ..tiny().cfg };
        let opts = TreeOptions::builder().stepped_fan_in(3).build();
        let mut t = SteppedMergeTree::with_mem_device(cfg, opts, 1 << 12).unwrap();
        for k in 0..2_000 {
            t.put(k, vec![1u8; 4]).unwrap();
        }
        // Two flushes leave the first level empty: the next flush merges
        // nothing, so little of the cache is pushed out by it.
        t.flush_memtable().unwrap();
        t.put(1_999, vec![1u8; 4]).unwrap();
        t.flush_memtable().unwrap();
        assert_eq!(t.run_counts()[0], 0);
        // Gets all over the keys fill the cache with blocks: from then on a
        // get that reads the device keeps its row.
        (100..2_000).step_by(60).for_each(|k| drop(t.get(k).unwrap()));
        assert_eq!(t.get(7).unwrap().as_deref(), Some(&[1u8; 4][..]));
        assert_eq!(t.get(7).unwrap().as_deref(), Some(&[1u8; 4][..]));
        assert_eq!(t.store.row_hits(), RowHits { current: 1, earlier: 0 });
        let epoch = t.epoch;
        t.put(7, vec![2u8; 4]).unwrap();
        t.flush_memtable().unwrap();
        // The stale row is still cached when the walk runs (asking for it
        // is one more row hit); the walk, which keeps its own row, takes
        // none.
        match t.store.cached_row(epoch, 7) {
            CachedRow::Current(stale, _) => assert_eq!(stale.payload[..], [1u8; 4]),
            other => panic!("the stale row is gone, {other:?}: no test"),
        }
        assert_eq!(t.get(7).unwrap().as_deref(), Some(&[2u8; 4][..]));
        assert_eq!(t.store.row_hits(), RowHits { current: 2, earlier: 0 });
    }

    #[test]
    fn rejects_bad_fan_in() {
        let cfg = LsmConfig { block_size: 256, payload_size: 4, ..LsmConfig::default() };
        let opts = TreeOptions::builder().stepped_fan_in(1).build();
        assert!(SteppedMergeTree::with_mem_device(cfg, opts, 1 << 10).is_err());
    }
}
