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

use crate::block::BlockHandle;
use crate::config::LsmConfig;
use crate::error::{LsmError, Result};
use crate::memtable::Memtable;
use crate::record::{Key, OpKind, Record, Request};
use crate::stats::TreeStats;
use crate::store::Store;
use crate::tree::TreeOptions;

/// One immutable sorted run.
#[derive(Debug, Clone, Default)]
pub struct Run {
    handles: Vec<BlockHandle>,
    records: u64,
}

impl Run {
    /// Blocks in the run.
    pub fn num_blocks(&self) -> usize {
        self.handles.len()
    }

    /// Records in the run.
    pub fn records(&self) -> u64 {
        self.records
    }

    fn find_block_for(&self, key: Key) -> Option<&BlockHandle> {
        let idx = self.handles.partition_point(|h| h.max < key);
        self.handles.get(idx).filter(|h| h.min <= key)
    }
}

/// A Stepped-Merge index: levels of up to `k` runs each.
pub struct SteppedMergeTree {
    cfg: LsmConfig,
    /// Fan-in: runs accumulated per level before merging down.
    k: usize,
    store: Store,
    mem: Memtable,
    /// `levels[i]` holds the runs of on-SSD level `i+1`, newest last.
    levels: Vec<Vec<Run>>,
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

    /// Apply one request.
    pub fn apply(&mut self, req: Request) -> Result<()> {
        match &req {
            Request::Put(..) => self.stats.puts += 1,
            Request::Delete(_) => self.stats.deletes += 1,
        }
        self.mem.apply(req);
        if self.mem.len() >= self.cfg.l0_capacity_records() {
            let _cascade = self.sink.span(SpanOp::cascade());
            let records = self.mem.extract_all();
            self.flush_run_into(0, records)?;
        }
        Ok(())
    }

    /// Write `records` as a new run of `levels[idx]`, then cascade merges.
    fn flush_run_into(&mut self, idx: usize, records: Vec<Record>) -> Result<()> {
        if self.levels.len() <= idx {
            self.levels.resize_with(idx + 1, Vec::new);
        }
        let run = if idx == 0 {
            // The L0→L1 run write is the memtable flush; deeper run writes
            // are merge output and stay inside their merge span.
            let _span = self.sink.span(SpanOp::flush(true));
            let records_flushed = records.len() as u64;
            self.sink.emit_with(|| Event::MemtableFlush { records: records_flushed, full: true });
            self.write_run(idx, records)?
        } else {
            self.write_run(idx, records)?
        };
        if run.records > 0 {
            self.levels[idx].push(run);
        }
        if self.levels[idx].len() >= self.k {
            self.merge_level_down(idx)?;
        }
        Ok(())
    }

    fn write_run(&mut self, idx: usize, records: Vec<Record>) -> Result<Run> {
        let b = self.cfg.block_capacity();
        let mut run = Run::default();
        let paper_level = idx + 1;
        for chunk in records.chunks(b) {
            let handle = self.store.write_block(chunk.to_vec())?;
            run.records += u64::from(handle.count);
            run.handles.push(handle);
            self.stats.level_mut(paper_level).blocks_written += 1;
        }
        self.stats.level_mut(paper_level).merges_in += 1;
        self.stats.level_mut(paper_level).records_in += run.records;
        Ok(run)
    }

    /// Merge-sort all runs of `levels[idx]` into one run at `idx + 1`.
    fn merge_level_down(&mut self, idx: usize) -> Result<()> {
        let target_paper = idx + 2;
        // Stepped merges are always "full" (all k runs at once); a deeper
        // cascade triggered by the output run nests as a child span.
        let _span = self.sink.span(SpanOp::merge(target_paper, true));
        self.sink.emit_with(|| Event::MergeStart { target_level: target_paper, full: true });
        let runs = std::mem::take(&mut self.levels[idx]);
        let src_records: u64 = runs.iter().map(Run::records).sum();
        // Tombstones can be dropped when merging out of the deepest
        // populated level (nothing below to cancel).
        let is_deepest = self.levels.iter().skip(idx + 1).all(Vec::is_empty);
        let reads: u64 = runs.iter().map(|r| r.num_blocks() as u64).sum();
        let merged = self.merge_runs(&runs, idx + 1, !is_deepest)?;
        for run in &runs {
            for h in &run.handles {
                self.store.free_block(h)?;
            }
        }
        let max_key = merged.last().map_or(0, |r| r.key);
        let writes_before = self.stats.level(target_paper).blocks_written;
        self.flush_run_into(idx + 1, merged)?;
        let writes = self.stats.level(target_paper).blocks_written - writes_before;
        self.sink.emit_with(|| Event::MergeFinish {
            target_level: target_paper,
            full: true,
            src_records,
            writes,
            reads,
            preserved: 0,
            max_key,
        });
        Ok(())
    }

    /// K-way merge with newest-run-wins consolidation. Counts one logical
    /// read per input block.
    fn merge_runs(
        &mut self,
        runs: &[Run],
        target_paper_level: usize,
        keep_tombstones: bool,
    ) -> Result<Vec<Record>> {
        // Cursors: (run_priority, handle_idx, record_idx, decoded block).
        struct Cursor {
            blocks: Vec<Arc<crate::block::DataBlock>>,
            bpos: usize,
            rpos: usize,
        }
        let mut cursors = Vec::with_capacity(runs.len());
        for run in runs {
            let mut blocks = Vec::with_capacity(run.handles.len());
            for h in &run.handles {
                blocks.push(self.store.read_block(h)?);
                self.stats.level_mut(target_paper_level).blocks_read += 1;
            }
            cursors.push(Cursor { blocks, bpos: 0, rpos: 0 });
        }
        let peek = |c: &Cursor| -> Option<Key> { c.blocks.get(c.bpos).map(|b| b.key(c.rpos)) };
        let advance = |c: &mut Cursor| {
            c.rpos += 1;
            if c.rpos >= c.blocks[c.bpos].len() {
                c.rpos = 0;
                c.bpos += 1;
            }
        };
        let mut out: Vec<Record> = Vec::new();
        loop {
            // Smallest key across cursors; newest run (highest index) wins.
            let mut min_key: Option<Key> = None;
            for c in cursors.iter() {
                if let Some(k) = peek(c) {
                    min_key = Some(min_key.map_or(k, |m: Key| m.min(k)));
                }
            }
            let Some(key) = min_key else { break };
            let mut winner: Option<Record> = None;
            for c in cursors.iter_mut().rev() {
                if peek(c) == Some(key) {
                    let r = c.blocks[c.bpos].record(c.rpos);
                    if winner.is_none() {
                        winner = Some(r);
                    }
                    advance(c);
                }
            }
            let winner = winner.expect("frontier key came from some cursor");
            if winner.op == OpKind::Put || keep_tombstones {
                out.push(winner);
            }
        }
        Ok(out)
    }

    /// Point lookup: memtable, then every level's runs newest-first.
    pub fn get(&self, key: Key) -> Result<Option<Bytes>> {
        let _span = self.sink.span(SpanOp::lookup());
        self.stats.note_lookup();
        if let Some(r) = self.mem.get(key) {
            return Ok(match r.op {
                OpKind::Put => Some(r.payload.clone()),
                OpKind::Delete => None,
            });
        }
        for level in &self.levels {
            for run in level.iter().rev() {
                let Some(handle) = run.find_block_for(key) else { continue };
                if let Some(bloom) = &handle.bloom {
                    if !bloom.may_contain(key) {
                        self.stats.note_lookup_costs(0, 1);
                        continue;
                    }
                }
                let block = self.store.read_block(handle)?;
                self.stats.note_lookup_costs(1, 0);
                if let Some(r) = block.find(key) {
                    return Ok(match r.op {
                        OpKind::Put => Some(r.payload),
                        OpKind::Delete => None,
                    });
                }
            }
        }
        Ok(None)
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
        self.mem.len() as u64
            + self.levels.iter().flat_map(|l| l.iter().map(Run::records)).sum::<u64>()
    }

    /// Force the (possibly non-full) memtable out as a run, cascading any
    /// level merges it triggers. A no-op when the memtable is empty.
    pub fn flush_memtable(&mut self) -> Result<()> {
        if self.mem.is_empty() {
            return Ok(());
        }
        let _cascade = self.sink.span(SpanOp::cascade());
        let records = self.mem.extract_all();
        self.flush_run_into(0, records)
    }
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
    fn put_get_delete_round_trip() {
        let mut t = tiny();
        for k in 0..500u64 {
            t.put(k * 3, vec![(k % 251) as u8; 4]).unwrap();
        }
        for k in (0..500u64).step_by(2) {
            t.delete(k * 3).unwrap();
        }
        for k in 0..500u64 {
            let got = t.get(k * 3).unwrap();
            if k % 2 == 0 {
                assert_eq!(got, None, "key {k}");
            } else {
                assert_eq!(got.as_deref(), Some(&vec![(k % 251) as u8; 4][..]), "key {k}");
            }
        }
    }

    #[test]
    fn levels_accumulate_up_to_k_runs() {
        let mut t = tiny();
        for k in 0..10_000u64 {
            t.put(k.wrapping_mul(2_654_435_761) % 100_000, vec![1u8; 4]).unwrap();
        }
        for (i, &count) in t.run_counts().iter().enumerate() {
            assert!(count < 3, "level {i} holds {count} runs, fan-in is 3");
        }
        assert!(t.lookup_fanout() >= 1);
    }

    #[test]
    fn newest_version_wins_across_runs() {
        let mut t = tiny();
        // Fill enough that key 42's old version lands in a run, then
        // overwrite it; the merge and lookups must prefer the new one.
        t.put(42, vec![1u8; 4]).unwrap();
        for k in 1_000..1_200u64 {
            t.put(k, vec![0u8; 4]).unwrap();
        }
        t.put(42, vec![2u8; 4]).unwrap();
        for k in 2_000..2_200u64 {
            t.put(k, vec![0u8; 4]).unwrap();
        }
        assert_eq!(t.get(42).unwrap().as_deref(), Some(&[2u8; 4][..]));
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

    #[test]
    fn rejects_bad_fan_in() {
        let cfg = LsmConfig { block_size: 256, payload_size: 4, ..LsmConfig::default() };
        let opts = TreeOptions::builder().stepped_fan_in(1).build();
        assert!(SteppedMergeTree::with_mem_device(cfg, opts, 1 << 10).is_err());
    }
}
