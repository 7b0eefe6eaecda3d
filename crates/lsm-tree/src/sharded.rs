//! Sharded concurrent front-end: N key-hash shards, each a full tree.
//!
//! A single tree behind one reader-writer lock gives the paper's
//! single-writer design safe concurrent access, but every modification
//! serializes on that lock and every merge walks one (tall) tree. This
//! module scales the front-end the way the paper's availability argument
//! suggests: since `ChooseBest` merges are short and bounded (Theorem 2),
//! running N *independent* trees — each over its own device region, with
//! its own write lock, WAL, and a 1/N slice of the cache budget — keeps
//! every shard's write stalls bounded while writers to different shards
//! never contend at all. Each shard also holds ~1/N of the keys, so it
//! stabilises at a lower height (fewer levels ⇒ fewer merge hops per
//! record), which reduces write amplification even on a single core. With
//! N = 1 this *is* the single-lock arrangement: concurrent readers,
//! serialized writers.
//!
//! [`ShardedLsmTree`] only routes, fans out and constructs; everything a
//! shard decides for itself — the write loop, the group-commit rendezvous,
//! the maintenance step, the checkpoint — lives in `shard.rs`.
//!
//! Durability: with a WAL directory every shard logs to `shard-<i>.wal`
//! there. [`ShardedLsmTree::checkpoint`] writes each shard's levels and L0
//! to `shard-<i>.manifest` beside its log and cuts the log, and
//! [`ShardedLsmTree::recover_with_backend`] reopens the shards over their
//! devices: the manifest restored, then the log's tail replayed — the
//! paper's on-SSD levels recovered, not rebuilt (§V footnote).
//! [`ShardedLsmTree::recover_with_wal`] is the log-only recovery into fresh
//! in-memory devices, for a directory that was never checkpointed.
//!
//! Keys are routed with a fixed splittable hash (SplitMix64 finalizer), so
//! the key→shard map is deterministic across restarts — a WAL written by
//! shard `i` replays into shard `i`. Range scans fan out to every shard and
//! merge the ordered per-shard results; point operations touch exactly one
//! shard. [`ShardedLsmTree::stats`] folds the per-shard [`TreeStats`] into
//! one logical view with [`TreeStats::absorb`].
//!
//! Observability: the handle emits [`Event::ShardRouted`] for every routed
//! request, and each shard's tree reports through the user's handle tagged
//! with the shard index ([`SinkHandle::with_shard`]), so every entry a sink
//! receives carries its shard ([`observe::TraceEvent::shard`]) — a single
//! sink sees which shard is merging without the `Event` type growing a
//! shard field on every variant.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;
use observe::{Event, Json, SinkHandle};
use sim_ssd::BlockDevice;

use crate::api::WriteBatch;
use crate::config::LsmConfig;
use crate::error::{LsmError, Result};
use crate::iter::{Merge, RangeScan, Source};
use crate::record::{mix64, Key, Request};
use crate::scheduler::MergeScheduler;
use crate::shard::{Shard, ShardTarget};
use crate::stats::TreeStats;
use crate::tree::{LsmTree, TreeOptions};
use crate::wal::{WalFaultPlan, WriteAheadLog};

/// Which of `shards` shards serves `key`: the key's hash mapped onto
/// `[0, shards)` by multiply-shift, which has no modulo bias. Routing must
/// be deterministic across runs (WAL replay depends on it), so the hash is
/// unseeded.
#[inline]
pub(crate) fn shard_index(key: Key, shards: usize) -> usize {
    ((u128::from(mix64(key)) * shards as u128) >> 64) as usize
}

/// What a constructor does with the per-shard files in its WAL directory.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Wal {
    /// Remove a stale manifest, start an empty log.
    Create,
    /// Refuse a manifest; replay each log's intact prefix into a fresh
    /// shard, then append to it.
    Replay,
    /// Restore each shard's manifest if it has one, then replay its log.
    Restore,
}

/// One fresh in-memory simulated SSD per shard.
fn mem_devices(cfg: &LsmConfig, shards: usize, blocks: u64) -> Vec<Arc<dyn BlockDevice>> {
    (0..shards)
        .map(|_| Arc::new(sim_ssd::MemDevice::with_block_size(blocks, cfg.block_size)) as _)
        .collect()
}

/// A thread-safe, sharded handle over N independent [`LsmTree`]s. Cloning
/// shares the shards.
///
/// With [`Scheduler::background`](crate::Scheduler::background) in the
/// tree options the handle owns a [`MergeScheduler`]: writers seal full
/// memtables and return, the worker pool runs flushes and merges, and
/// writers stall only at the sealed-memtable backlog bound; with the
/// default [`Scheduler::Inline`](crate::Scheduler::Inline) every shard
/// behaves exactly like a bare [`LsmTree`] fed the same requests. With
/// [`CommitMode::Group`](crate::CommitMode::Group) every apply returns
/// once an fsync covers it, and N concurrent writers to a WAL-backed shard
/// share one.
#[derive(Clone)]
pub struct ShardedLsmTree {
    // Declared before `shards` so the last clone drops (and drains) the
    // scheduler while the shard trees are still alive.
    scheduler: Option<Arc<MergeScheduler>>,
    shards: Arc<Vec<Shard>>,
    /// User sink: receives `ShardRouted` from the router (the per-shard
    /// trees report through shard-tagged derivations of it).
    sink: SinkHandle,
}

impl ShardedLsmTree {
    /// Build N shards, each over a fresh in-memory simulated SSD of
    /// `device_blocks_per_shard` blocks. `cfg.cache_blocks` is the *total*
    /// budget: each shard gets `max(1, cache_blocks / shards)`. The sink in
    /// `opts` becomes the user sink described at the module level.
    pub fn with_mem_devices(
        cfg: LsmConfig,
        opts: TreeOptions,
        shards: usize,
        device_blocks_per_shard: u64,
    ) -> Result<Self> {
        let devices = mem_devices(&cfg, shards, device_blocks_per_shard);
        Self::build(cfg, opts, devices, None, None)
    }

    /// Like [`ShardedLsmTree::with_mem_devices`], plus one write-ahead log
    /// per shard (`shard-<i>.wal` under `wal_dir`), after removing any
    /// `shard-<i>.manifest` an older tree left there.
    pub fn with_wal_dir(
        cfg: LsmConfig,
        opts: TreeOptions,
        shards: usize,
        device_blocks_per_shard: u64,
        wal_dir: impl AsRef<Path>,
    ) -> Result<Self> {
        let devices = mem_devices(&cfg, shards, device_blocks_per_shard);
        Self::build(cfg, opts, devices, Some((wal_dir.as_ref(), Wal::Create)), None)
    }

    /// Recover a WAL-backed sharded tree: fresh shards, then replay each
    /// shard's log (its intact prefix) back into that same shard. Routing
    /// is deterministic, so every replayed request lands where it was
    /// originally applied. A directory with a `shard-<i>.manifest` is
    /// refused ([`LsmError::Config`]): its logs hold only what came after a
    /// checkpoint, the rest is on devices this constructor does not have.
    pub fn recover_with_wal(
        cfg: LsmConfig,
        opts: TreeOptions,
        shards: usize,
        device_blocks_per_shard: u64,
        wal_dir: impl AsRef<Path>,
    ) -> Result<Self> {
        let devices = mem_devices(&cfg, shards, device_blocks_per_shard);
        Self::build(cfg, opts, devices, Some((wal_dir.as_ref(), Wal::Replay)), None)
    }

    pub(crate) fn wal_path(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("shard-{shard}.wal"))
    }

    /// Build one shard per entry of `devices` — the constructor to use when
    /// shards should run over decorated devices ([`sim_ssd::FaultDevice`],
    /// file-backed, ...). Shard `i` owns
    /// `devices[i]`; cache budget splits as in
    /// [`ShardedLsmTree::with_mem_devices`].
    pub fn with_devices(
        cfg: LsmConfig,
        opts: TreeOptions,
        devices: Vec<Arc<dyn BlockDevice>>,
    ) -> Result<Self> {
        Self::build(cfg, opts, devices, None, None)
    }

    /// The full-control constructor: explicit devices, an optional WAL
    /// directory, and an optional externally built [`MergeScheduler`].
    /// The concurrency-torture harness uses it to run shards over
    /// [`sim_ssd::FaultDevice`]s with a [`MergeScheduler::simulated`]
    /// scheduler making every maintenance decision from a seed; passing
    /// `None` for `scheduler` falls back to a worker pool when the tree
    /// options ask for one. An injected scheduler drives the write path
    /// as background maintenance (seal-and-return, backpressure at the
    /// bound) regardless of `opts.scheduler`. A WAL directory gets
    /// fresh logs, as in [`ShardedLsmTree::with_wal_dir`].
    pub fn with_backend(
        cfg: LsmConfig,
        opts: TreeOptions,
        devices: Vec<Arc<dyn BlockDevice>>,
        wal_dir: Option<&Path>,
        scheduler: Option<Arc<MergeScheduler>>,
    ) -> Result<Self> {
        Self::build(cfg, opts, devices, wal_dir.map(|dir| (dir, Wal::Create)), scheduler)
    }

    /// Reopen what [`ShardedLsmTree::with_backend`] built over the same
    /// devices and WAL directory: shard `i` restores `shard-<i>.manifest`
    /// over `devices[i]` ([`LsmTree::restore`]) if there is one — else it
    /// starts empty over the device, with `cfg` — then replays the intact
    /// prefix of `shard-<i>.wal` and appends to it.
    pub fn recover_with_backend(
        cfg: LsmConfig,
        opts: TreeOptions,
        devices: Vec<Arc<dyn BlockDevice>>,
        wal_dir: &Path,
        scheduler: Option<Arc<MergeScheduler>>,
    ) -> Result<Self> {
        Self::build(cfg, opts, devices, Some((wal_dir, Wal::Restore)), scheduler)
    }

    /// Every constructor ends here. A shard's log is created or replayed
    /// before the shard is shared: whether a shard logs is fixed from then
    /// on, which is what lets its write path encode without the lock.
    fn build(
        mut cfg: LsmConfig,
        opts: TreeOptions,
        devices: Vec<Arc<dyn BlockDevice>>,
        wal: Option<(&Path, Wal)>,
        scheduler: Option<Arc<MergeScheduler>>,
    ) -> Result<Self> {
        assert!(!devices.is_empty(), "need at least one shard");
        cfg.cache_blocks = (cfg.cache_blocks / devices.len()).max(1);
        let shards = devices
            .into_iter()
            .enumerate()
            .map(|(i, device)| {
                // The shard and its tree report through the user's handle
                // tagged with the shard's index.
                let opts = TreeOptions { sink: opts.sink.with_shard(i), ..opts.clone() };
                let Some((dir, what)) = wal else {
                    return Shard::new(i, LsmTree::new(cfg.clone(), opts, device)?, None);
                };
                let log = Self::wal_path(dir, i);
                let manifest = crate::shard::manifest_path(&log);
                let tree = match what {
                    Wal::Restore if manifest.exists() => LsmTree::restore(&manifest, opts, device)?,
                    Wal::Replay if manifest.exists() => {
                        return Err(LsmError::Config(format!(
                            "{} holds the levels this log was cut to: recover over the \
                             devices with recover_with_backend",
                            manifest.display()
                        )))
                    }
                    _ => LsmTree::new(cfg.clone(), opts, device)?,
                };
                if what != Wal::Create {
                    let mut shard = Shard::new(i, tree, None)?;
                    shard.recover(&log)?;
                    return Ok(shard);
                }
                // A new tree must never recover an older tree's levels.
                match std::fs::remove_file(&manifest) {
                    Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                        Err(sim_ssd::DeviceError::Io(e).into())
                    }
                    _ => Shard::new(i, tree, Some(&log)),
                }
            })
            .collect::<Result<Vec<_>>>()?;
        let shards = Arc::new(shards);
        let scheduler = scheduler.or_else(|| {
            let policy = opts.scheduler.background_policy()?;
            Some(Arc::new(MergeScheduler::new(policy, opts.sink.clone())))
        });
        if let Some(sched) = &scheduler {
            for idx in 0..shards.len() {
                let id =
                    sched.register(Arc::new(ShardTarget { shards: Arc::downgrade(&shards), idx }));
                debug_assert_eq!(id, idx, "scheduler ids follow shard order");
            }
        }
        Ok(ShardedLsmTree { scheduler, shards, sink: opts.sink })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard serves `key`. Deterministic across processes — WAL
    /// replay and the equivalence tests rely on it.
    pub fn shard_of(&self, key: Key) -> usize {
        shard_index(key, self.shards.len())
    }

    /// [`ShardedLsmTree::shard_of`], announced on the user sink.
    fn route(&self, key: Key) -> usize {
        let idx = self.shard_of(key);
        self.sink.emit_with(|| Event::ShardRouted { shard: idx });
        idx
    }

    /// Insert or update `key` (exclusive on its shard only).
    pub fn put(&self, key: Key, payload: impl Into<Bytes>) -> Result<()> {
        self.apply(Request::Put(key, payload.into()))
    }

    /// Delete `key` (exclusive on its shard only).
    pub fn delete(&self, key: Key) -> Result<()> {
        self.apply(Request::Delete(key))
    }

    /// Apply a request to the shard that owns its key. If the shard is
    /// WAL-backed the request is logged before it is applied, with the
    /// configured [`CommitMode`](crate::CommitMode) deciding when the log
    /// bytes become durable. In background-scheduler mode a full memtable
    /// is sealed and handed to the worker pool instead of merged inline;
    /// the writer stalls only when the sealed backlog hits the policy
    /// bound.
    pub fn apply(&self, req: Request) -> Result<()> {
        let shard = &self.shards[self.route(req.key())];
        shard.apply(&mut [req], self.scheduler.as_deref(), |durable_at| match durable_at {
            Some(seq) => shard.group_wait(seq, &|| self.scheduler_section_json()),
            None => Ok(()),
        })
    }

    /// Apply `req` on shard `idx` and return without waiting for its group
    /// commit: the WAL position that must be durable before the request may
    /// be acked (`Some` only under [`CommitMode::Group`](crate::CommitMode))
    /// goes back to the caller — the crash-torture harness, which acks
    /// from its own seeded sync steps and checkpoints.
    pub(crate) fn apply_unacked(&self, idx: usize, req: Request) -> Result<Option<u64>> {
        self.shards[idx].apply(&mut [req], self.scheduler.as_deref(), Ok)
    }

    /// Apply the batch: each shard's share of it (its *run*: the batch's
    /// requests for that shard, in batch order) goes through that shard's
    /// write path in one pass — frames encoded and checksummed before the
    /// shard lock is taken, the lock then kept for the whole run but let
    /// go every 256 requests whenever a get, a scan, a sync or a merge
    /// install waits for it, so a get beside a large batch waits for a
    /// chunk, not for the batch, while a batch nobody waits for takes the
    /// lock once — and under [`CommitMode::Group`](crate::CommitMode::Group)
    /// the whole batch commits with one group-commit rendezvous per touched
    /// shard, on the offset its own last append to that shard returned,
    /// instead of one per request. `&self` so concurrent writer threads can
    /// batch without exclusive access.
    ///
    /// Shards are independent, so the result is what applying the requests
    /// one by one gives. Errors: the batch is validated whole — one refused
    /// request (say [`LsmError::RecordTooLarge`](crate::LsmError)) fails
    /// the call with nothing logged or applied. On any later error (a
    /// failed fsync, a device fault in an inline merge) what has been
    /// applied is a prefix of each shard's run, none of it acknowledged.
    pub fn write_batch(&self, batch: WriteBatch) -> Result<()> {
        let mut runs: Vec<Vec<Request>> = Vec::with_capacity(self.shards.len());
        if self.shards.len() == 1 {
            // One shard: its run is the batch, and its write path checks it.
            if self.sink.is_enabled() {
                batch
                    .requests()
                    .iter()
                    .for_each(|_| self.sink.emit(Event::ShardRouted { shard: 0 }));
            }
            runs.push(batch.into_requests());
        } else {
            runs.resize_with(self.shards.len(), Vec::new);
            for req in batch {
                let idx = self.route(req.key());
                self.shards[idx].check(&req)?;
                runs[idx].push(req);
            }
        }
        let mut commit_at: Vec<Option<u64>> = vec![None; self.shards.len()];
        for ((shard, run), seq) in self.shards.iter().zip(&mut runs).zip(&mut commit_at) {
            if !run.is_empty() {
                *seq = shard.apply(run, self.scheduler.as_deref(), Ok)?;
            }
        }
        for (shard, seq) in self.shards.iter().zip(commit_at) {
            if let Some(seq) = seq {
                shard.group_wait(seq, &|| self.scheduler_section_json())?;
            }
        }
        Ok(())
    }

    /// One seeded group-sync step for the crash-torture harness: one
    /// *half* of a group-commit leader's work on shard `idx` per call.
    /// The first call flushes the log's buffer and notes its length
    /// (`Ok(None)`); the second fsyncs, publishes the noted position as
    /// durable, wakes any followers and returns it. Requests applied
    /// between the two land where a real leader's fsync leaves room for
    /// them, and are not covered by it. An fsync failure poisons the
    /// rendezvous exactly like a leader failure inside
    /// [`ShardedLsmTree::apply`] (it is the same code).
    pub(crate) fn group_sync_step(&self, idx: usize) -> Result<Option<u64>> {
        self.shards[idx].group_sync_step()
    }

    /// Point lookup (shared on its shard; concurrent with everything on
    /// other shards). Counted in [`TreeStats`] like [`LsmTree::get`]: the
    /// read-path counters are relaxed atomics, so concurrent gets under
    /// the read lock are all accounted.
    pub fn get(&self, key: Key) -> Result<Option<Bytes>> {
        self.shards[self.route(key)].read().tree.get(key)
    }

    /// Point lookup without touching [`TreeStats`] — the no-stats path,
    /// mirroring [`LsmTree::peek`].
    pub fn peek(&self, key: Key) -> Result<Option<Bytes>> {
        self.shards[self.shard_of(key)].read().tree.peek(key)
    }

    /// Ordered scan of the live keys in `[lo, hi]`, merged across shards.
    /// Hash routing scatters a key range over every shard, so the scan
    /// fans out: each shard's ordered scan is collected under its read
    /// lock, then the (disjoint) results are merged ([`crate::iter`]).
    ///
    /// Shards are visited one after another, so the result is an atomic
    /// snapshot per shard, not across shards.
    pub fn scan_collect(&self, lo: Key, hi: Key) -> Result<Vec<(Key, Bytes)>> {
        let mut per_shard: Vec<Vec<(Key, Bytes)>> = Vec::with_capacity(self.shards.len());
        for shard in self.shards.iter() {
            let state = shard.read();
            let _span = state.tree.sink().span(observe::SpanOp::scan());
            per_shard.push(state.tree.scan(lo, hi).collect::<Result<_>>()?);
        }
        // One shard's result is the result: a pass through the merge would
        // only move it (measured at 12 % of a cached 100-record scan).
        if per_shard.len() == 1 {
            return Ok(per_shard.swap_remove(0));
        }
        let sources = per_shard.into_iter().map(|live| Source::Owned(live.into_iter()));
        RangeScan(Merge::new(sources.collect())).collect()
    }

    /// Aggregated counters: every shard's [`TreeStats`] absorbed into one.
    pub fn stats(&self) -> TreeStats {
        let mut total = TreeStats::default();
        for shard in self.shards.iter() {
            total.absorb(shard.read().tree.stats());
        }
        total
    }

    /// Per-shard snapshots, for callers that care about balance.
    pub fn shard_stats(&self) -> Vec<TreeStats> {
        self.shards.iter().map(|s| s.read().tree.stats().clone()).collect()
    }

    /// Height of the tallest shard.
    pub fn height(&self) -> usize {
        self.shards.iter().map(|s| s.read().tree.height()).max().unwrap_or(0)
    }

    /// Live records across all shards.
    pub fn record_count(&self) -> u64 {
        self.shards.iter().map(|s| s.read().tree.record_count()).sum()
    }

    /// Fsync every shard's WAL (no-op for shards without one).
    pub fn sync_wals(&self) -> Result<()> {
        self.shards.iter().try_for_each(Shard::sync_wal)
    }

    /// Checkpoint every shard, one after another: under the shard's write
    /// lock its log is fsynced, its levels and L0 are written to
    /// `shard-<i>.manifest` beside the log, and the log is truncated.
    /// Writers and readers of a shard wait for its checkpoint; a writer
    /// waiting for a group commit the checkpoint covered is acked by it.
    /// [`LsmError::Config`] on a handle without a WAL directory.
    pub fn checkpoint(&self) -> Result<()> {
        self.shards.iter().try_for_each(Shard::checkpoint)
    }

    /// Total fsyncs issued across every shard's WAL — the group-commit
    /// economy metric (N writers sharing a leader's fsync count once).
    pub fn wal_fsyncs(&self) -> u64 {
        self.shards.iter().filter_map(|s| s.wal(WriteAheadLog::syncs)).sum()
    }

    /// Appended WAL length per shard, in bytes (0 without a WAL).
    pub fn wal_lens(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.wal(WriteAheadLog::len_bytes).unwrap_or(0)).collect()
    }

    /// Crash-durable WAL length per shard, in bytes (0 without a WAL).
    pub fn wal_synced_lens(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.wal(WriteAheadLog::synced_len).unwrap_or(0)).collect()
    }

    /// Whether `shard`'s WAL is poisoned by a failed fsync (always false
    /// without a WAL).
    pub fn wal_poisoned(&self, shard: usize) -> bool {
        self.shards[shard].wal(WriteAheadLog::is_poisoned).unwrap_or(false)
    }

    /// Arm deterministic fsync-fault injection on `shard`'s WAL (no-op
    /// without a WAL). See [`WalFaultPlan`].
    pub fn set_wal_fault_plan(&self, shard: usize, plan: WalFaultPlan, seed: u64) {
        self.shards[shard].set_wal_fault_plan(plan, seed);
    }

    /// A report's `scheduler` section: the scheduler's job-queue
    /// snapshot (queued/running/backlogs/...) plus one `rendezvous` entry
    /// per shard describing the open group-commit state. Also what the
    /// group-commit watchdog dumps when a rendezvous hangs.
    pub fn scheduler_section_json(&self) -> Json {
        let mut pairs = match self.scheduler.as_ref().map(|s| s.snapshot().to_json()) {
            Some(Json::Obj(pairs)) => pairs,
            _ => vec![("backend".to_string(), Json::from("inline"))],
        };
        let rendezvous = Json::arr(self.shards.iter().map(Shard::rendezvous_json));
        pairs.push(("rendezvous".to_string(), rendezvous));
        Json::Obj(pairs)
    }

    /// Drain everything pending: background flush/merge jobs (surfacing
    /// the first background error) or inline leftover maintenance, then
    /// fsync every WAL. Afterwards the trees are quiescent and every
    /// applied request is crash-durable.
    pub fn flush(&self) -> Result<()> {
        match &self.scheduler {
            Some(s) => loop {
                s.drain()?;
                // Memtables left full behind a full backlog are work too.
                let mut sealed = false;
                for (idx, shard) in self.shards.iter().enumerate() {
                    if let Some(backlog) = shard.seal_if_full() {
                        s.notify(idx, backlog);
                        sealed = true;
                    }
                }
                if !sealed {
                    break;
                }
            },
            None => {
                for shard in self.shards.iter() {
                    while shard.compute()? {
                        shard.install()?;
                    }
                }
            }
        }
        self.sync_wals()
    }

    /// Run a closure under one shard's read lock.
    pub fn with_shard_read<T>(&self, shard: usize, f: impl FnOnce(&LsmTree) -> T) -> T {
        f(&self.shards[shard].read().tree)
    }

    /// Run every shard through the full structural verifier
    /// ([`crate::verify::check_tree`]); `deep` additionally re-reads every
    /// block. Errors are tagged with the failing shard.
    pub fn deep_verify(&self, deep: bool) -> std::result::Result<(), String> {
        for (i, shard) in self.shards.iter().enumerate() {
            crate::verify::check_tree(&shard.read().tree, deep)
                .map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }
}

impl crate::api::WriteApi for ShardedLsmTree {
    fn apply(&mut self, req: Request) -> Result<()> {
        ShardedLsmTree::apply(self, req)
    }

    fn flush(&mut self) -> Result<()> {
        ShardedLsmTree::flush(self)
    }

    fn write_batch(&mut self, batch: WriteBatch) -> Result<()> {
        ShardedLsmTree::write_batch(self, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommitMode;
    use crate::error::LsmError;
    use crate::policy::PolicySpec;
    use crate::wal::WAL_HEADER_LEN;
    use observe::MetricsSink;
    use sim_ssd::DeviceError;

    fn small_cfg() -> LsmConfig {
        LsmConfig {
            block_size: 256,
            payload_size: 4,
            k0_blocks: 4,
            gamma: 4,
            cache_blocks: 64,
            merge_rate: 0.25,
            ..LsmConfig::default()
        }
    }

    fn sharded(n: usize) -> ShardedLsmTree {
        ShardedLsmTree::with_mem_devices(
            small_cfg(),
            TreeOptions::builder().policy(PolicySpec::ChooseBest).build(),
            n,
            1 << 16,
        )
        .unwrap()
    }

    #[test]
    fn routing_is_total_and_deterministic() {
        let t = sharded(4);
        let mut hit = [0u64; 4];
        for k in 0..10_000u64 {
            let s = t.shard_of(k);
            assert_eq!(s, t.shard_of(k), "routing must be deterministic");
            hit[s] += 1;
        }
        // The hash spreads a dense key range roughly evenly.
        for (i, &n) in hit.iter().enumerate() {
            assert!(n > 1_500, "shard {i} got only {n}/10000 keys");
        }
    }

    #[test]
    fn basic_ops_and_merged_scans() {
        let t = sharded(4);
        for k in 0..3_000u64 {
            t.put(k, vec![(k % 251) as u8; 4]).unwrap();
        }
        for k in (0..3_000u64).step_by(3) {
            t.delete(k).unwrap();
        }
        for k in 0..3_000u64 {
            let got = t.get(k).unwrap();
            if k % 3 == 0 {
                assert_eq!(got, None, "deleted key {k}");
            } else {
                assert_eq!(got.as_deref(), Some(&vec![(k % 251) as u8; 4][..]), "key {k}");
            }
        }
        // The merged scan is ordered, complete, and tombstone-free.
        let scan = t.scan_collect(0, 2_999).unwrap();
        assert_eq!(scan.len(), 2_000);
        assert!(scan.windows(2).all(|w| w[0].0 < w[1].0), "scan must be ordered");
        assert!(scan.iter().all(|(k, _)| k % 3 != 0));
        // Aggregated stats see every routed request.
        let s = t.stats();
        assert_eq!(s.puts, 3_000);
        assert_eq!(s.deletes, 1_000);
        assert_eq!(s.lookups(), 3_000);
        // Physical records: live keys plus not-yet-compacted tombstones.
        assert!(t.record_count() >= 2_000);
        t.deep_verify(true).unwrap();
    }

    #[test]
    fn equivalent_to_independent_trees_on_the_same_routing() {
        // A sharded tree under `Scheduler::Inline` must behave exactly like
        // N independent trees fed the same routed requests — same per-shard
        // stats, same device traffic, same contents — down to N = 1, where
        // the whole front-end is one bare `LsmTree` behind a lock.
        for n in [1, 4] {
            let t = sharded(n);
            let mut solo: Vec<LsmTree> = (0..n)
                .map(|_| {
                    let mut cfg = small_cfg();
                    cfg.cache_blocks = (cfg.cache_blocks / n).max(1);
                    LsmTree::with_mem_device(
                        cfg,
                        TreeOptions::builder().policy(PolicySpec::ChooseBest).build(),
                        1 << 16,
                    )
                    .unwrap()
                })
                .collect();
            let mut x = 0xdead_beefu64;
            for _ in 0..4_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let k = (x >> 16) % 1_500;
                let req = if x.is_multiple_of(5) {
                    Request::Delete(k)
                } else {
                    Request::Put(k, Bytes::from(vec![(k % 251) as u8; 4]))
                };
                solo[t.shard_of(k)].apply(req.clone()).unwrap();
                t.apply(req).unwrap();
            }
            t.flush().unwrap(); // a no-op inline: nothing may be left pending
            for (i, solo_tree) in solo.iter().enumerate() {
                t.with_shard_read(i, |tree| {
                    assert_eq!(tree.stats(), solo_tree.stats(), "{n} shards: shard {i} stats");
                    assert_eq!(
                        tree.store().io_snapshot(),
                        solo_tree.store().io_snapshot(),
                        "{n} shards: shard {i} device counts"
                    );
                    let scan =
                        |t: &LsmTree| t.scan(0, u64::MAX).collect::<Result<Vec<_>>>().unwrap();
                    assert_eq!(scan(tree), scan(solo_tree), "{n} shards: shard {i} contents");
                });
            }
        }
    }

    #[test]
    fn one_shard_is_the_shared_access_wrapper() {
        // Concurrent readers / serialized writers over one tree: `peek` is
        // the no-stats path and clones share the index.
        let a = sharded(1);
        let b = a.clone();
        a.put(1, vec![1u8; 4]).unwrap();
        a.put(2, vec![2u8; 4]).unwrap();
        a.delete(1).unwrap();
        assert_eq!(b.get(1).unwrap(), None);
        assert_eq!(b.get(2).unwrap().as_deref(), Some(&[2u8; 4][..]));
        assert_eq!(b.stats().lookups(), 2, "gets under the read lock are counted");
        assert_eq!(b.peek(2).unwrap().as_deref(), Some(&[2u8; 4][..]));
        assert_eq!(a.stats().lookups(), 2, "peek is the no-stats path");
        assert_eq!(b.stats().puts, 2, "clones share the index");
        assert_eq!(b.scan_collect(0, 10).unwrap().len(), 1);
        assert_eq!((b.height(), b.shard_count()), (2, 1));
    }

    #[test]
    fn concurrent_writers_and_readers_on_one_lock_and_across_shards() {
        // One shard: every reader shares its lock with every writer.
        for shards in [1, 4] {
            let t = sharded(shards);
            // Stable prefix every reader can verify throughout.
            for k in 0..2_000u64 {
                t.put(k, vec![(k % 251) as u8; 4]).unwrap();
            }
            let readers_ok = std::sync::atomic::AtomicBool::new(true);
            std::thread::scope(|s| {
                // 4 writers over disjoint key ranges (which hash across all
                // shards — disjointness is about keys, not shards).
                for w in 0..4u64 {
                    let t = &t;
                    s.spawn(move || {
                        let base = 1_000_000 * (w + 1);
                        for i in 0..4_000u64 {
                            t.put(base + (i * 13 % 3_000), vec![(w % 251) as u8; 4]).unwrap();
                            if i % 4 == 0 {
                                t.delete(base + (i * 7 % 3_000)).unwrap();
                            }
                        }
                    });
                }
                // 2 readers verifying the stable prefix.
                for r in 0..2u64 {
                    let readers_ok = &readers_ok;
                    let t = &t;
                    s.spawn(move || {
                        for i in 0..4_000u64 {
                            let k = (i * (r + 3)) % 2_000;
                            match t.get(k) {
                                Ok(Some(v)) if v[..] == [(k % 251) as u8; 4][..] => {}
                                other => {
                                    eprintln!("reader saw {other:?} for key {k}");
                                    readers_ok.store(false, std::sync::atomic::Ordering::Relaxed);
                                    return;
                                }
                            }
                        }
                    });
                }
            });
            assert!(readers_ok.load(std::sync::atomic::Ordering::Relaxed));
            // Every concurrent lookup was counted (2 readers × 4000).
            assert_eq!(t.stats().lookups(), 8_000);
            // Every shard structurally sound, blocks re-read and re-checked.
            t.deep_verify(true).unwrap();
        }
    }

    #[test]
    fn shard_events_reach_the_sink() {
        let counter = Arc::new(MetricsSink::new());
        let counts = counter.metrics();
        let t = ShardedLsmTree::with_mem_devices(
            small_cfg(),
            TreeOptions::builder()
                .policy(PolicySpec::ChooseBest)
                .sink(SinkHandle::new(counter))
                .build(),
            2,
            1 << 16,
        )
        .unwrap();
        for k in 0..2_000u64 {
            t.put(k, vec![1u8; 4]).unwrap();
        }
        let _ = t.get(7).unwrap();
        assert_eq!(counts.counter("shard.routed"), 2_001, "every routed request is announced");
        assert!(counts.counter("merge.count") > 0, "fill must trigger merges");
        assert_eq!(
            counts.counter("shard.merges"),
            counts.counter("merge.count"),
            "every MergeFinish carries its shard's tag"
        );
    }

    #[test]
    fn wal_recovery_restores_every_shard() {
        let dir = std::env::temp_dir().join(format!("lsm-sharded-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let n = 3;
        {
            let t =
                ShardedLsmTree::with_wal_dir(small_cfg(), TreeOptions::default(), n, 1 << 16, &dir)
                    .unwrap();
            for k in 0..2_500u64 {
                t.put(k, vec![(k % 251) as u8; 4]).unwrap();
            }
            for k in (0..500u64).step_by(2) {
                t.delete(k).unwrap();
            }
            t.sync_wals().unwrap();
            // Crash: drop without any checkpointing.
        }
        let t =
            ShardedLsmTree::recover_with_wal(small_cfg(), TreeOptions::default(), n, 1 << 16, &dir)
                .unwrap();
        for k in 0..2_500u64 {
            let got = t.get(k).unwrap();
            if k < 500 && k % 2 == 0 {
                assert_eq!(got, None, "deleted key {k} resurrected");
            } else {
                assert_eq!(got.as_deref(), Some(&vec![(k % 251) as u8; 4][..]), "key {k}");
            }
        }
        t.deep_verify(true).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lsm-sharded-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn wal_tree(tag: &str, commit: CommitMode, shards: usize) -> (ShardedLsmTree, PathBuf) {
        let dir = scratch_dir(tag);
        let opts = TreeOptions::builder().group_commit(commit).build();
        (ShardedLsmTree::with_wal_dir(small_cfg(), opts, shards, 1 << 16, &dir).unwrap(), dir)
    }

    /// A WAL-backed tree whose maintenance only runs when the (seeded)
    /// simulated scheduler is stepped: no threads, so every interleaving
    /// below is the one written down.
    fn sim_tree(dir: &Path, commit: CommitMode, shards: usize) -> ShardedLsmTree {
        sim_tree_over(dir, commit, mem_devices(&small_cfg(), shards, 1 << 16))
    }

    fn sim_tree_over(
        dir: &Path,
        commit: CommitMode,
        devices: Vec<Arc<dyn BlockDevice>>,
    ) -> ShardedLsmTree {
        let sim = MergeScheduler::simulated(2, 7, SinkHandle::none());
        let opts = TreeOptions::builder().group_commit(commit).build();
        ShardedLsmTree::with_backend(small_cfg(), opts, devices, Some(dir), Some(Arc::new(sim)))
            .unwrap()
    }

    /// A run of puts of `keys` through shard 0's write loop, unacked: the
    /// position it must see durable.
    fn commit(t: &ShardedLsmTree, keys: std::ops::Range<u64>) -> u64 {
        let mut run: Vec<Request> =
            keys.map(|k| Request::Put(k, Bytes::from(vec![k as u8; 4]))).collect();
        t.shards[0].apply(&mut run, t.scheduler.as_deref(), Ok).unwrap().unwrap()
    }

    #[test]
    fn refused_put_never_reaches_the_log() {
        // Regression: the request was appended to the WAL before the tree
        // checked its size, so a put refused to the caller stayed in the
        // log and replay aborted recovery on it — losing every acked write
        // after it. A batch is refused whole: one over-size record, and
        // none of it is logged or applied, on any shard.
        for shards in [1, 3] {
            let (t, dir) = wal_tree("refused", CommitMode::Group, shards);
            t.put(1, vec![1u8; 4]).unwrap();
            let logged = t.wal_lens();
            let err = t.put(2, vec![0u8; 4096]).unwrap_err();
            assert!(matches!(err, LsmError::RecordTooLarge { .. }), "{err}");
            assert_eq!(t.wal_lens(), logged, "a refused request must not grow the log");
            let mut batch = WriteBatch::new();
            for k in 10..40u64 {
                batch.put(k, vec![if k == 33 { 0u8 } else { 7 }; if k == 33 { 4096 } else { 4 }]);
            }
            let err = t.write_batch(batch).unwrap_err();
            assert!(matches!(err, LsmError::RecordTooLarge { .. }), "{err}");
            assert_eq!(t.wal_lens(), logged, "a refused batch must not grow any log");
            assert_eq!(t.stats().puts, 1, "a refused batch applies nothing");
            assert_eq!(t.scan_collect(0, u64::MAX).unwrap().len(), 1);
            t.put(3, vec![3u8; 4]).unwrap();
            std::mem::forget(t); // crash
            let r = ShardedLsmTree::recover_with_wal(
                small_cfg(),
                TreeOptions::default(),
                shards,
                1 << 16,
                &dir,
            )
            .expect("recovery must not trip over the refused put");
            assert_eq!(r.get(1).unwrap().as_deref(), Some(&[1u8; 4][..]));
            assert_eq!(r.get(2).unwrap(), None);
            assert_eq!(r.get(3).unwrap().as_deref(), Some(&[3u8; 4][..]));
            assert_eq!(r.scan_collect(0, u64::MAX).unwrap().len(), 2);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    fn is(e: &LsmError, want: fn(&DeviceError) -> bool) -> bool {
        matches!(e, LsmError::Device(d) if want(d))
    }

    #[test]
    fn leader_and_sync_step_poison_identically() {
        // One leader section behind both entry points: whichever hits the
        // injected fsync fault gets the fault itself, poisons WAL and
        // rendezvous, and leaves both entry points refusing with Poisoned.
        // Through the step the sync runs in its halves with a second
        // writer's append in between: the failure errors that writer too.
        // Where the log ends after one delete (a 21-byte frame), and two.
        let (first, second) = (WAL_HEADER_LEN + 21, WAL_HEADER_LEN + 42);
        for via_step in [false, true] {
            let (t, dir) = wal_tree("poison", CommitMode::Group, 1);
            t.set_wal_fault_plan(0, WalFaultPlan::none().fail_sync_at(0), 7);
            let err = if via_step {
                assert_eq!(t.apply_unacked(0, Request::Delete(1)).unwrap(), Some(first));
                assert_eq!(t.group_sync_step(0).unwrap(), None, "begun: flushed, length noted");
                assert_eq!(t.apply_unacked(0, Request::Delete(2)).unwrap(), Some(second));
                t.group_sync_step(0).map(|_| ()).unwrap_err()
            } else {
                t.put(1, vec![1u8; 4]).unwrap_err()
            };
            assert!(is(&err, |d| matches!(d, DeviceError::Injected { .. })), "{via_step}: {err}");
            assert!(t.wal_poisoned(0), "{via_step}: WAL not poisoned");
            assert_eq!(
                t.wal_synced_lens(),
                [WAL_HEADER_LEN],
                "{via_step}: a failed fsync publishes nothing"
            );
            let section = t.scheduler_section_json().render();
            assert!(section.contains("\"poisoned\":true"), "{via_step}: {section}");
            assert!(section.contains("\"leader_running\":false"), "{via_step}: {section}");
            let poisoned = |d: &DeviceError| matches!(d, DeviceError::Poisoned);
            for waiter in [first, second] {
                let err = t.shards[0].group_wait(waiter, &|| Json::Null).unwrap_err();
                assert!(is(&err, poisoned), "{via_step}: the writer at {waiter} must error");
            }
            assert!(is(&t.put(2, vec![2u8; 4]).unwrap_err(), poisoned), "{via_step}: put");
            assert!(is(&t.group_sync_step(0).unwrap_err(), poisoned), "{via_step}: step");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_sync_covers_what_was_logged_when_it_began_and_nothing_after() {
        // Writer A's leader flushes and notes the length, writer B commits,
        // A's fsync finishes: A is acked and B is not, whatever the fsync
        // happened to carry to disk, and a power cut there keeps A alone.
        let dir = scratch_dir("split-sync");
        let t = sim_tree(&dir, CommitMode::Group, 1);
        let a = commit(&t, 0..3);
        assert_eq!(t.group_sync_step(0).unwrap(), None);
        let b = commit(&t, 10..12);
        assert!(a < b);
        assert_eq!(
            t.wal_synced_lens(),
            [WAL_HEADER_LEN],
            "nothing is durable until the fsync returns"
        );
        assert_eq!(t.group_sync_step(0).unwrap(), Some(a), "the noted length, not the current");
        assert_eq!(t.wal_synced_lens(), [a]);
        assert_eq!(t.wal_lens(), [b]);
        assert_eq!(t.wal_fsyncs(), 1);
        // A's rendezvous is over; B's would have to lead a sync of its own.
        t.shards[0].group_wait(a, &|| Json::Null).unwrap();
        let synced_seq = format!("\"synced_seq\":{}", a);
        assert!(t.scheduler_section_json().render().contains(&synced_seq));
        std::mem::forget(t); // power cut: only what is known synced survives
        let log = ShardedLsmTree::wal_path(&dir, 0);
        std::fs::OpenOptions::new().write(true).open(&log).unwrap().set_len(a).unwrap();
        let r =
            ShardedLsmTree::recover_with_wal(small_cfg(), TreeOptions::default(), 1, 1 << 16, &dir)
                .unwrap();
        let keys: Vec<Key> = r.scan_collect(0, u64::MAX).unwrap().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, [0, 1, 2], "exactly A's commit");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_writer_waiting_across_a_checkpoint_is_acked_by_it() {
        // The checkpoint put the write in the manifest and cut the log: its
        // pre-cut position is covered, and it never leads an fsync of the
        // new log.
        let dir = scratch_dir("ckpt-ack");
        let t = sim_tree(&dir, CommitMode::Group, 1);
        let at = commit(&t, 0..3);
        t.checkpoint().unwrap();
        let fsyncs = t.wal_fsyncs();
        t.shards[0].group_wait(at, &|| Json::Null).unwrap();
        assert_eq!(t.wal_fsyncs(), fsyncs, "acked on the manifest's strength, not an fsync");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_sync_begun_before_a_checkpoint_publishes_nothing_after_it() {
        let dir = scratch_dir("ckpt-sync");
        let devices = mem_devices(&small_cfg(), 1, 1 << 16);
        let t = sim_tree_over(&dir, CommitMode::Group, devices.clone());
        commit(&t, 0..3);
        assert_eq!(t.group_sync_step(0).unwrap(), None, "begun before the cut");
        t.checkpoint().unwrap();
        let after = commit(&t, 10..12);
        let finished = t.group_sync_step(0).unwrap().unwrap();
        assert!(finished < after, "finished after the cut, it covers nothing after it");
        assert_eq!(t.wal_synced_lens(), [WAL_HEADER_LEN], "nothing of the new log is published");
        let fsyncs = t.wal_fsyncs();
        // Acked only by a later sync that covers it.
        assert_eq!(t.group_sync_step(0).unwrap(), None);
        assert!(t.group_sync_step(0).unwrap().unwrap() >= after);
        t.shards[0].group_wait(after, &|| Json::Null).unwrap();
        assert_eq!(t.wal_fsyncs(), fsyncs + 1);
        // A power cut right there: logged since, never synced, and cut.
        let synced = t.wal_synced_lens()[0];
        commit(&t, 20..22);
        std::mem::forget(t);
        let log = ShardedLsmTree::wal_path(&dir, 0);
        std::fs::OpenOptions::new().write(true).open(&log).unwrap().set_len(synced).unwrap();
        let r = ShardedLsmTree::recover_with_backend(
            small_cfg(),
            TreeOptions::default(),
            devices,
            &dir,
            None,
        )
        .unwrap();
        let keys: Vec<Key> = r.scan_collect(0, u64::MAX).unwrap().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, [0, 1, 2, 10, 11], "the checkpointed writes and the covered tail");
        r.deep_verify(true).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_with_wal_refuses_a_checkpointed_directory() {
        // Its logs hold only the tail: a replay into fresh devices would
        // lose everything before the checkpoint without a word.
        let (t, dir) = wal_tree("refuse", CommitMode::Buffered, 2);
        for k in 0..100u64 {
            t.put(k, vec![1u8; 4]).unwrap();
        }
        t.checkpoint().unwrap();
        drop(t);
        let opts = TreeOptions::default();
        match ShardedLsmTree::recover_with_wal(small_cfg(), opts, 2, 1 << 16, &dir) {
            Err(LsmError::Config(msg)) => assert!(msg.contains("shard-0.manifest"), "{msg}"),
            other => panic!("expected a config error, got {:?}", other.err()),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_new_tree_never_recovers_an_older_trees_levels() {
        // Both creating constructors remove a stale manifest before they
        // create the log, so a recovery over the directory sees only the
        // new tree.
        let dir = scratch_dir("stale");
        let opts = || TreeOptions::default();
        for with_backend in [false, true] {
            let old = ShardedLsmTree::with_wal_dir(small_cfg(), opts(), 1, 1 << 16, &dir).unwrap();
            old.put(1, vec![1u8; 4]).unwrap();
            old.checkpoint().unwrap();
            drop(old);
            assert!(dir.join("shard-0.manifest").exists());
            let devices = mem_devices(&small_cfg(), 1, 1 << 16);
            let new = match with_backend {
                true => ShardedLsmTree::with_backend(
                    small_cfg(),
                    opts(),
                    devices.clone(),
                    Some(&dir),
                    None,
                ),
                false => ShardedLsmTree::with_wal_dir(small_cfg(), opts(), 1, 1 << 16, &dir),
            }
            .unwrap();
            assert!(!dir.join("shard-0.manifest").exists(), "{with_backend}");
            new.put(2, vec![2u8; 4]).unwrap();
            drop(new);
            let r = ShardedLsmTree::recover_with_backend(small_cfg(), opts(), devices, &dir, None)
                .unwrap();
            let keys: Vec<Key> =
                r.scan_collect(0, u64::MAX).unwrap().iter().map(|(k, _)| *k).collect();
            assert_eq!(keys, [2], "{with_backend}: the new tree alone");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A tape with updates and deletes of keys still in L0 (so memtable
    /// fills end at odd requests), long enough to fill L0 many times over.
    fn tape(n: usize) -> Vec<Request> {
        let mut x = 0x5eed_cafeu64;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let k = (x >> 20) % 700;
                match x % 7 {
                    0 => Request::Delete(k),
                    _ => Request::Put(k, Bytes::from(vec![(x >> 8) as u8; 4])),
                }
            })
            .collect()
    }

    #[test]
    fn a_batch_is_its_requests_one_by_one() {
        // One write path: whatever way a tape is cut into batches, every
        // shard logs the same bytes, seals, stalls and merges after the same
        // requests, and ends in the same state as when each request is a
        // run of its own. The simulated scheduler makes the background side
        // repeat exactly: it only ever runs inside a writer's call.
        use crate::shard::MAX_REQUESTS_PER_HOLD as CHUNK;
        let tape = tape(10 * CHUNK + 77);
        let state = |t: &ShardedLsmTree, dir: &Path| {
            t.flush().unwrap();
            t.deep_verify(true).unwrap();
            let logs: Vec<Vec<u8>> = (0..t.shard_count())
                .map(|i| std::fs::read(ShardedLsmTree::wal_path(dir, i)).unwrap())
                .collect();
            let io: Vec<_> = (0..t.shard_count())
                .map(|i| t.with_shard_read(i, |tree| tree.store().io_snapshot()))
                .collect();
            (logs, t.shard_stats(), io, t.scan_collect(0, u64::MAX).unwrap())
        };
        for shards in [1, 4] {
            for background in [false, true] {
                let build = |dir: &Path| match background {
                    true => sim_tree(dir, CommitMode::Group, shards),
                    false => {
                        let opts = TreeOptions::builder().group_commit(CommitMode::Group).build();
                        ShardedLsmTree::with_wal_dir(small_cfg(), opts, shards, 1 << 16, dir)
                            .unwrap()
                    }
                };
                for size in [1, CHUNK - 1, CHUNK, CHUNK + 1, 10 * CHUNK] {
                    // The reference takes each batch shard by shard, as
                    // `write_batch` does: shards are independent, but the
                    // simulated scheduler draws from one seed for all.
                    let ref_dir = scratch_dir("one-by-one");
                    let t = build(&ref_dir);
                    for batch in tape.chunks(size) {
                        for shard in 0..shards {
                            for req in batch.iter().filter(|r| t.shard_of(r.key()) == shard) {
                                t.apply_unacked(shard, req.clone()).unwrap();
                            }
                        }
                    }
                    let one_by_one = state(&t, &ref_dir);
                    assert!(
                        one_by_one.1.iter().all(|s| s.level(1).merges_in > 10),
                        "L0 must fill many times"
                    );
                    let dir = scratch_dir("batched");
                    let t = build(&dir);
                    for batch in tape.chunks(size) {
                        t.write_batch(batch.iter().cloned().collect()).unwrap();
                    }
                    let what =
                        format!("{shards} shards, background {background}, batches of {size}");
                    let batched = state(&t, &dir);
                    assert!(batched.0 == one_by_one.0, "{what}: WAL bytes differ");
                    assert_eq!(batched.1, one_by_one.1, "{what}: stats");
                    assert_eq!(batched.2, one_by_one.2, "{what}: device counts");
                    assert_eq!(batched.3, one_by_one.3, "{what}: contents");
                    std::fs::remove_dir_all(&dir).ok();
                    std::fs::remove_dir_all(&ref_dir).ok();
                }
            }
        }
    }

    #[test]
    fn a_cascade_that_failed_part_way_is_finished_by_the_next_request() {
        // The write path only looks for merge work after a request that
        // fills the memtable — unless an inline cascade failed between its
        // steps: the flush is in, a level still overflows, the memtable has
        // room. The next request, whatever it is, must finish the cascade.
        use sim_ssd::{FaultDevice, FaultPlan, MemDevice};
        let mut left_a_level_overflowing = 0;
        for nth in 1..400u64 {
            let dev =
                Arc::new(FaultDevice::new(Arc::new(MemDevice::with_block_size(1 << 14, 256)), nth));
            let opts = TreeOptions::builder().retry(crate::RetryPolicy::none()).build();
            let t =
                ShardedLsmTree::with_devices(small_cfg(), opts, vec![dev.clone() as _]).unwrap();
            dev.set_plan(FaultPlan::none().fail_write_at(nth));
            let mut tape = tape(3_000).into_iter();
            let Some(failed) = tape.by_ref().find(|req| t.apply(req.clone()).is_err()) else {
                break; // the workload has fewer writes than that
            };
            let (pending, full) =
                t.with_shard_read(0, |tree| (tree.maintenance_pending(), tree.mem_at_capacity()));
            left_a_level_overflowing += u32::from(pending && !full);
            // The fault was one write: the next request goes through, and
            // leaves nothing pending behind it.
            t.apply(failed).unwrap();
            assert!(!t.with_shard_read(0, LsmTree::maintenance_pending), "write {nth}");
            tape.for_each(|req| t.apply(req).unwrap());
            t.deep_verify(true).unwrap();
        }
        assert!(left_a_level_overflowing > 10, "only {left_a_level_overflowing} such failures");
    }

    /// Puts of `keys`, each value naming `tag`.
    fn puts(keys: std::ops::Range<u64>, tag: [u8; 2]) -> WriteBatch {
        keys.map(|k| Request::Put(k, Bytes::from(vec![tag[0], tag[1], k as u8, 0]))).collect()
    }

    #[test]
    fn a_writer_keeps_the_lock_unless_someone_waits_and_a_get_does_not_wait_for_the_batch() {
        use crate::shard::MAX_REQUESTS_PER_HOLD as CHUNK;
        use std::sync::atomic::{AtomicBool, Ordering};
        let t = sharded(1);
        t.put(u64::MAX, vec![9u8; 4]).unwrap();
        // Nobody waits: the whole batch is one hold of the write lock.
        let (holds, yields) = t.shards[0].write_holds();
        t.write_batch(puts(0..100_000, [0, 0])).unwrap();
        assert_eq!(t.shards[0].write_holds(), (holds + 1, yields), "one hold, no yield");
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                t.write_batch(puts(0..100_000, [0, 1])).unwrap();
                done.store(true, Ordering::SeqCst);
            });
            // Reads get the lock at a yield point: first to see that the
            // batch is under way, then the get itself — long before its end.
            while t.stats().puts < 100_003 {
                std::hint::spin_loop();
            }
            assert_eq!(t.get(u64::MAX).unwrap().as_deref(), Some(&[9u8; 4][..]));
            let applied = t.stats().puts;
            assert!(!done.load(Ordering::SeqCst), "the get waited for the whole batch");
            assert!(applied < 200_001, "the get came back after {applied} puts");
        });
        assert_eq!(t.stats().puts, 200_001);
        assert!(t.shards[0].write_holds().1 > yields, "the reads took no yield point");
        assert_eq!(t.shards[0].longest_stretch(), CHUNK, "a yield check every chunk");
    }

    #[test]
    fn a_get_beside_two_writers_does_not_wait_for_either_batch() {
        use crate::shard::MAX_REQUESTS_PER_HOLD as CHUNK;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let t = sharded(1);
        t.put(u64::MAX, vec![9u8; 4]).unwrap();
        let n = 40 * CHUNK as u64;
        let done = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            for w in 0..2u8 {
                let (t, done, start) = (&t, &done, &start);
                s.spawn(move || {
                    start.wait();
                    t.write_batch(puts(u64::from(w) * n..u64::from(w + 1) * n, [w, 0])).unwrap();
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            start.wait();
            while t.stats().puts < 3 {
                std::hint::spin_loop();
            }
            assert_eq!(t.get(u64::MAX).unwrap().as_deref(), Some(&[9u8; 4][..]));
            assert_eq!(done.load(Ordering::SeqCst), 0, "the get waited for a whole batch");
        });
        assert_eq!(t.stats().puts, 2 * n + 1);
        assert_eq!(t.shards[0].longest_stretch(), CHUNK);
    }

    #[test]
    fn wal_order_is_apply_order_across_yields() {
        // Two writers rewrite the same keys, batch after batch of several
        // chunks each, while a third thread's gets make them yield: the
        // log must replay to exactly the state the live tree ended in,
        // and hold each batch whole (runs that reach a yield point take
        // turns, so a yield never lets the other writer in between).
        use crate::shard::MAX_REQUESTS_PER_HOLD as CHUNK;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (t, dir) = wal_tree("yield-order", CommitMode::Group, 1);
        let keys = 0..3 * CHUNK as u64 + 17;
        let writing = AtomicUsize::new(2);
        std::thread::scope(|s| {
            for w in 0..2u8 {
                let (t, keys, writing) = (&t, keys.clone(), &writing);
                s.spawn(move || {
                    for round in 0..24u8 {
                        t.write_batch(puts(keys.clone(), [w, round])).unwrap();
                    }
                    writing.fetch_sub(1, Ordering::SeqCst);
                });
            }
            let mut k = 0;
            while writing.load(Ordering::SeqCst) > 0 {
                t.get(k % keys.end).unwrap();
                k += 7;
            }
        });
        let yields = t.scheduler_section_json().get("rendezvous").items()[0]
            .get("write_yields")
            .as_u64()
            .unwrap();
        assert!(yields > 0, "no writer yielded: the test never took the yield path");
        let live: Vec<_> = keys.clone().map(|k| t.get(k).unwrap().unwrap()).collect();
        assert!(live.iter().all(|v| v[1] == 23), "every key ends in a last round");
        drop(t);
        let (_, logged) =
            WriteAheadLog::open_and_replay(ShardedLsmTree::wal_path(&dir, 0)).unwrap();
        let tag = |req: &Request| match req {
            Request::Put(_, v) => [v[0], v[1]],
            Request::Delete(_) => unreachable!("the writers only put"),
        };
        assert_eq!(logged.len(), 2 * 24 * keys.end as usize);
        for batch in logged.chunks(keys.end as usize) {
            assert!(batch.iter().all(|r| tag(r) == tag(&batch[0])), "a batch is cut in the log");
        }
        let r =
            ShardedLsmTree::recover_with_wal(small_cfg(), TreeOptions::default(), 1, 1 << 16, &dir)
                .unwrap();
        for (k, live) in keys.zip(&live) {
            assert_eq!(r.get(k).unwrap().as_ref(), Some(live), "key {k}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_results_interleave_through_the_one_merge() {
        let owned = |keys: &[Key]| {
            let pairs: Vec<_> = keys.iter().map(|&k| (k, Bytes::from(vec![k as u8]))).collect();
            Source::Owned(pairs.into_iter())
        };
        let sources = vec![owned(&[1, 4, 9]), owned(&[]), owned(&[2, 3, 10]), owned(&[0])];
        let merged: Vec<(Key, Bytes)> =
            RangeScan(Merge::new(sources)).collect::<Result<_>>().unwrap();
        let keys: Vec<Key> = merged.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4, 9, 10]);
        assert!(merged.iter().all(|(k, v)| v[..] == [*k as u8]));
    }
}
