//! The LSM-tree facade: requests in, merges down, lookups across levels.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use observe::{Event, SinkHandle, SpanGuard, SpanOp};

use sim_ssd::BlockDevice;

use crate::config::{CommitMode, LsmConfig, Scheduler};
use crate::error::{LsmError, Result};
use crate::iter::{lookup, Merge, Source};
use crate::level::{Level, LevelDraft, LevelEdit};
use crate::memtable::{Memtable, RunMeta};
use crate::merge::{MergeEngine, MergeSource, StepBlocks};
use crate::policy::ledger::{enumerate_candidates, DecisionLedger};
use crate::policy::window::runs_of_handles;
use crate::policy::{predicted_writes, MergeChoice, MergeCtx, PolicySpec};
use crate::record::{Key, Record, Request};
use crate::stats::{LevelStats, MergeKind, TreeStats};
use crate::store::{RetryPolicy, Store};

/// Behavioural options of a tree, orthogonal to the data geometry.
///
/// Construct via [`TreeOptions::builder`]; the struct is `#[non_exhaustive]`
/// so options can grow without breaking downstream code:
///
/// ```
/// use lsm_tree::{PolicySpec, TreeOptions};
///
/// let opts = TreeOptions::builder()
///     .policy(PolicySpec::ChooseBest)
///     .preserve_blocks(false)
///     .build();
/// assert!(!opts.preserve_blocks);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TreeOptions {
    /// Which merge policy runs the index.
    pub policy: PolicySpec,
    /// Block-preserving merges (§II-B). The paper's "-P" policy variants
    /// set this to `false`.
    pub preserve_blocks: bool,
    /// Enforce the pairwise waste constraint (§II-B). Only the ablation
    /// harness ever sets this to false.
    pub enforce_pairwise: bool,
    /// Enforce the level-wise waste constraint via compactions (§II-B).
    /// Only the ablation harness ever sets this to false.
    pub enforce_level_waste: bool,
    /// Event sink registered at construction; every layer (device, cache,
    /// merges, WAL) reports through it. Defaults to detached.
    pub sink: SinkHandle,
    /// Bounded retry-with-backoff for transient device errors (see
    /// [`RetryPolicy`]). Defaults to 4 attempts, 50 µs base backoff.
    pub retry: RetryPolicy,
    /// Optional decision ledger recording every merge decision's candidate
    /// table, prediction, and reconciled actual cost. When absent (the
    /// default) candidates are never enumerated, so the ledger costs
    /// nothing on the device image or the tree's counters.
    pub ledger: Option<Arc<DecisionLedger>>,
    /// How flush/merge maintenance runs: inline on the triggering request
    /// (the default — deterministic, byte-identical to the historical
    /// behaviour) or on a background worker pool owned by the concurrent
    /// front-end. See [`Scheduler`].
    pub scheduler: Scheduler,
    /// WAL commit discipline for WAL-backed front-ends. See [`CommitMode`].
    pub commit: CommitMode,
}

impl Default for TreeOptions {
    fn default() -> Self {
        TreeOptions {
            policy: PolicySpec::ChooseBest,
            preserve_blocks: true,
            enforce_pairwise: true,
            enforce_level_waste: true,
            sink: SinkHandle::none(),
            retry: RetryPolicy::default(),
            ledger: None,
            scheduler: Scheduler::Inline,
            commit: CommitMode::Buffered,
        }
    }
}

impl TreeOptions {
    /// Start building options from the defaults.
    pub fn builder() -> TreeOptionsBuilder {
        TreeOptionsBuilder::default()
    }
}

/// Builder for [`TreeOptions`]. Every setter has the default documented on
/// the corresponding [`TreeOptions`] field.
#[derive(Debug, Clone, Default)]
pub struct TreeOptionsBuilder {
    opts: TreeOptions,
}

impl TreeOptionsBuilder {
    /// Select the merge policy (default: [`PolicySpec::ChooseBest`]).
    pub fn policy(mut self, policy: PolicySpec) -> Self {
        self.opts.policy = policy;
        self
    }

    /// Enable or disable block-preserving merges (default: enabled).
    pub fn preserve_blocks(mut self, on: bool) -> Self {
        self.opts.preserve_blocks = on;
        self
    }

    /// Enable or disable the pairwise waste constraint (default: enabled).
    pub fn enforce_pairwise(mut self, on: bool) -> Self {
        self.opts.enforce_pairwise = on;
        self
    }

    /// Enable or disable the level-wise waste constraint (default: enabled).
    pub fn enforce_level_waste(mut self, on: bool) -> Self {
        self.opts.enforce_level_waste = on;
        self
    }

    /// Register an event sink (default: detached).
    pub fn sink(mut self, sink: SinkHandle) -> Self {
        self.opts.sink = sink;
        self
    }

    /// Set the transient-error retry policy (default: 4 attempts, 50 µs
    /// base backoff; use [`RetryPolicy::none`] to fail fast).
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.opts.retry = retry;
        self
    }

    /// Attach a decision ledger (default: none). The same ledger may be
    /// shared with post-mortem tooling; it survives policy swaps because
    /// it lives on the tree, not the policy.
    pub fn ledger(mut self, ledger: Arc<DecisionLedger>) -> Self {
        self.opts.ledger = Some(ledger);
        self
    }

    /// Choose how flush/merge maintenance runs (default:
    /// [`Scheduler::Inline`]). [`Scheduler::background`] moves merges onto
    /// the worker pool of the concurrent front-end.
    pub fn scheduler(mut self, scheduler: Scheduler) -> Self {
        self.opts.scheduler = scheduler;
        self
    }

    /// Choose the WAL commit discipline (default: [`CommitMode::Buffered`]).
    /// [`CommitMode::Group`] makes N concurrent writers share one fsync.
    pub fn group_commit(mut self, mode: CommitMode) -> Self {
        self.opts.commit = mode;
        self
    }

    /// Finish, yielding the options.
    pub fn build(self) -> TreeOptions {
        self.opts
    }
}

/// Which memtable a flush drains a window of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemSlot {
    /// The live memtable — the inline cascade.
    Active,
    /// The oldest sealed memtable on the immutable queue — a maintenance
    /// step. Sealed memtables drain oldest-first, so newest-wins shadowing
    /// across the queue is preserved.
    ImmOldest,
}

/// Everything a maintenance step reads besides the data: shared or cheap
/// to copy, so a step holds its own and needs no lock on the tree.
#[derive(Clone)]
struct StepEnv {
    cfg: LsmConfig,
    preserve_blocks: bool,
    enforce_pairwise: bool,
    enforce_level_waste: bool,
    store: Arc<Store>,
    policy: Arc<PolicySpec>,
    sink: SinkHandle,
    ledger: Option<Arc<DecisionLedger>>,
}

impl StepEnv {
    fn new(cfg: LsmConfig, opts: TreeOptions, store: Store) -> Self {
        store.set_sink(opts.sink.clone());
        StepEnv {
            cfg,
            preserve_blocks: opts.preserve_blocks,
            enforce_pairwise: opts.enforce_pairwise,
            enforce_level_waste: opts.enforce_level_waste,
            store: Arc::new(store),
            policy: Arc::new(opts.policy),
            sink: opts.sink,
            ledger: opts.ledger,
        }
    }
}

/// An LSM-tree over a block device.
///
/// Everything maintenance reads is immutable and behind an `Arc` — each
/// level, each memtable — so a flush or merge is computed against a
/// snapshot and changes the tree only when its outcome is installed
/// (`snapshot → compute → install`, see "Maintenance" below).
pub struct LsmTree {
    env: StepEnv,
    mem: Arc<Memtable>,
    /// `cfg.l0_capacity_records()`, which divides: the write path asks how
    /// full the memtable is on every request.
    l0_capacity: usize,
    /// Sealed memtables awaiting a background flush, oldest first, never
    /// an empty one. Always empty under [`Scheduler::Inline`] (the inline
    /// cascade never seals).
    imm: VecDeque<Arc<Memtable>>,
    /// Every on-SSD run, in the order a lookup probes them: the runs of
    /// L1 newest first, then those of L2, and so on. Under a leveled policy
    /// a level is one run, so `levels[i]` is paper-level `L_{i+1}`.
    levels: Vec<Arc<Level>>,
    /// Runs each paper level holds, top down (`runs[0]` is L1's); they sum
    /// to `levels.len()`. All ones under a leveled policy.
    runs: Vec<usize>,
    /// RR cursor for merges out of L0 (cursors of on-SSD levels live in
    /// the levels themselves).
    mem_rr_cursor: Option<Key>,
    stats: TreeStats,
    commit: CommitMode,
    /// Step outcomes installed so far: a snapshot records it, and an
    /// outcome may only be installed on the state it was computed from.
    /// Also the levels' epoch: they change only at an install, so the
    /// buffer cache dates what a level walk found by it (`Store::cached_row`).
    installs: u64,
}

/// Whether a tree configured for `payload_size`-byte payloads accepts `req`:
/// a put's payload may be no larger. Every count of records a block holds —
/// merge output, the waste bound, the pairwise constraint — is taken at
/// that size, and a validated configuration fits one such record in a
/// block. WAL-backed front-ends ask *before* logging: a refused request
/// that reached the log would be refused again by replay and abort
/// recovery, losing every acknowledged write after it.
pub(crate) fn check_request(payload_size: usize, req: &Request) -> Result<()> {
    match req {
        Request::Put(_, payload) if payload.len() > payload_size => {
            Err(LsmError::PayloadTooLarge { payload_bytes: payload.len(), payload_size })
        }
        _ => Ok(()),
    }
}

impl LsmTree {
    /// Create a tree over an existing device.
    pub fn new(cfg: LsmConfig, opts: TreeOptions, device: Arc<dyn BlockDevice>) -> Result<Self> {
        let cfg = cfg.validated()?;
        if device.block_size() != cfg.block_size {
            return Err(LsmError::Config(format!(
                "device block size {} != configured {}",
                device.block_size(),
                cfg.block_size
            )));
        }
        // A leveled tree starts with an empty L1; a stepped one with no run.
        let levels = vec![Level::new(); usize::from(opts.policy.fan_in().is_none())];
        let runs = vec![1; levels.len()];
        opts.policy.admit(&runs, 0)?;
        let store =
            Store::new(device, cfg.cache_blocks, cfg.bloom_bits_per_key).with_retry(opts.retry);
        let (mem, stats) = (Memtable::new(), TreeStats::default());
        Ok(Self::assemble(cfg, opts, store, mem, (levels, runs), None, stats))
    }

    /// Create a tree over a fresh in-memory simulated SSD of
    /// `device_blocks` blocks.
    pub fn with_mem_device(cfg: LsmConfig, opts: TreeOptions, device_blocks: u64) -> Result<Self> {
        let dev = Arc::new(sim_ssd::MemDevice::with_block_size(device_blocks, cfg.block_size));
        Self::new(cfg, opts, dev)
    }

    /// Assemble a tree from recovered parts (the manifest restore path):
    /// its runs and the runs each level holds, which the policy admits.
    pub(crate) fn assemble(
        cfg: LsmConfig,
        opts: TreeOptions,
        store: Store,
        mem: Memtable,
        (levels, runs): (Vec<Level>, Vec<usize>),
        mem_rr_cursor: Option<Key>,
        stats: TreeStats,
    ) -> Self {
        debug_assert_eq!(runs.iter().sum::<usize>(), levels.len());
        let commit = opts.commit;
        LsmTree {
            l0_capacity: cfg.l0_capacity_records(),
            env: StepEnv::new(cfg, opts, store),
            mem: Arc::new(mem),
            imm: VecDeque::new(),
            levels: levels.into_iter().map(Arc::new).collect(),
            runs,
            mem_rr_cursor,
            stats,
            commit,
            installs: 0,
        }
    }

    /// L0's round-robin cursor (persisted by checkpoints).
    pub fn mem_rr_cursor(&self) -> Option<Key> {
        self.mem_rr_cursor
    }

    // ------------------------------------------------------------------
    // Modification requests
    // ------------------------------------------------------------------

    /// Insert or update `key`.
    pub fn put(&mut self, key: Key, payload: impl Into<Bytes>) -> Result<()> {
        self.apply(Request::Put(key, payload.into()))
    }

    /// Delete `key`.
    pub fn delete(&mut self, key: Key) -> Result<()> {
        self.apply(Request::Delete(key))
    }

    /// Apply one request and run any merges it triggers.
    ///
    /// The whole call is one [`SpanOp::put`] span; the cascade (if the
    /// memtable overflowed) nests inside it, so a trace partitions the
    /// front-end latency into memtable-insert time plus cascade time.
    pub fn apply(&mut self, req: Request) -> Result<()> {
        let _span = self.env.sink.span(SpanOp::put());
        self.apply_buffered(req)?;
        self.run_cascade()
    }

    /// Apply one request to the active memtable *without* running merges —
    /// the foreground half of the background write path. The caller (a
    /// concurrent front-end running [`Scheduler::Background`]) is
    /// responsible for sealing the memtable when
    /// [`LsmTree::mem_at_capacity`] and driving [`LsmTree::maintenance_step`]
    /// from its worker pool.
    pub fn apply_buffered(&mut self, req: Request) -> Result<()> {
        check_request(self.env.cfg.payload_size, &req)?;
        self.buffer_run(std::iter::once(req));
        Ok(())
    }

    /// [`LsmTree::apply_buffered`] for a run the caller has validated.
    pub(crate) fn buffer_run(&mut self, run: impl Iterator<Item = Request>) {
        let mem = Arc::make_mut(&mut self.mem);
        for req in run {
            match req {
                Request::Put(..) => self.stats.puts += 1,
                Request::Delete(_) => self.stats.deletes += 1,
            }
            mem.apply(req);
        }
    }

    // ------------------------------------------------------------------
    // Lookups
    // ------------------------------------------------------------------

    /// Point lookup: newest visible version of `key`, if any.
    ///
    /// Lifetime: a value found in an on-SSD block that the buffer cache
    /// holds (or had room for) is a zero-copy *view* of that block's frame
    /// and keeps the whole frame (`block_size` bytes) alive while held — as
    /// does every `Bytes` a range scan yields; copy it out
    /// (`Bytes::copy_from_slice`) to keep it long-term. So does a value a
    /// logged shard's memtable serves: a view of the WAL frame chunk its
    /// run was encoded into (up to 256 frames; DESIGN.md §11), which it
    /// keeps alive. A value read past a full cache is a copy of its own and
    /// pins nothing.
    ///
    /// Caching contract: past the memtables, a row the buffer cache kept
    /// for `key` at the tree's install count answers for every level at
    /// once ([`Store::cached_row`]). Without one, each level asked costs one
    /// buffer-cache lookup ([`Store::read_record`]) — a hit if the cached
    /// block answers, or a row kept at an earlier install count from that
    /// very block — and a miss reads the device. The miss leaves the
    /// block in the cache while there is room for it without evicting
    /// anything, and once the cache is full only the record found, as the
    /// walk's row. Exactly like [`LsmTree::peek`]. `get` additionally
    /// updates the tree's own [`TreeStats`] lookup counters, where a block
    /// asked counts as a block read whatever answered, and a row hit counts
    /// the blocks and Bloom skips of the walk that kept it. Those counters
    /// are relaxed atomics, so `get` takes `&self` and concurrent readers
    /// (e.g. through [`crate::ShardedLsmTree`]) are all accounted rather
    /// than silently dropped.
    pub fn get(&self, key: Key) -> Result<Option<Bytes>> {
        let _span = self.env.sink.span(SpanOp::lookup());
        self.lookup(key, Some(&self.stats))
    }

    /// Read-only point lookup that leaves [`TreeStats`] untouched — the
    /// documented no-stats path for probes that must not perturb the
    /// measurement (doctors, verifiers, learner probes).
    ///
    /// Caching contract: identical probing path as [`LsmTree::get`] (a row
    /// or a block that answers is marked visited in the buffer cache and
    /// counts in its statistics, and a miss leaves the block or the row
    /// behind); only the per-tree lookup counters are skipped.
    pub fn peek(&self, key: Key) -> Result<Option<Bytes>> {
        self.lookup(key, None)
    }

    /// The one lookup path behind [`LsmTree::get`] and [`LsmTree::peek`]:
    /// the live memtable, the sealed ones newest first (all of them newer
    /// than any level), then the levels top-down, which stand at install
    /// count `installs` for as long as `&self` is held. `get` has it
    /// counted in the tree's statistics — through relaxed atomics, so
    /// concurrent readers are all counted — and `peek` has not.
    fn lookup(&self, key: Key, stats: Option<&TreeStats>) -> Result<Option<Bytes>> {
        let memtables = std::iter::once(&self.mem).chain(self.imm.iter().rev());
        let levels = self.levels.iter().map(|level| &**level);
        let store = &self.env.store;
        lookup(memtables.map(|mem| &**mem), store, levels, self.installs, key, stats)
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Static configuration.
    pub fn config(&self) -> &LsmConfig {
        &self.env.cfg
    }

    /// Height `h` — number of levels including L0.
    pub fn height(&self) -> usize {
        self.runs.len() + 1
    }

    /// Every on-SSD run in lookup order; under a leveled policy index `i`
    /// is paper-level `L_{i+1}`, under Stepped-Merge the runs of each level
    /// come newest first, level after level ([`LsmTree::run_counts`]).
    pub fn levels(&self) -> &[Arc<Level>] {
        &self.levels
    }

    /// Runs each on-SSD level holds, top down; they sum to
    /// `levels().len()`.
    pub fn run_counts(&self) -> &[usize] {
        &self.runs
    }

    /// The memory-resident L0.
    pub fn memtable(&self) -> &Memtable {
        &self.mem
    }

    /// Storage services (device counters, cache statistics).
    pub fn store(&self) -> &Store {
        &self.env.store
    }

    /// Cost counters.
    pub fn stats(&self) -> &TreeStats {
        &self.stats
    }

    /// The active policy.
    pub(crate) fn policy(&self) -> &PolicySpec {
        &self.env.policy
    }

    /// Name of the active policy.
    pub fn policy_name(&self) -> &'static str {
        self.env.policy.name()
    }

    /// Total records in the index (upper bound: shadowed versions and
    /// tombstones count until merges consolidate them).
    pub fn record_count(&self) -> u64 {
        self.mem.len() as u64
            + self.imm.iter().map(|m| m.len() as u64).sum::<u64>()
            + self.levels.iter().map(|l| l.records()).sum::<u64>()
    }

    /// Approximate logical size in bytes.
    pub fn approx_bytes(&self) -> u64 {
        self.record_count() * self.env.cfg.record_size() as u64
    }

    /// Replace the merge policy (the Mixed learner uses this between
    /// measurements; data and statistics are unaffected). A policy that
    /// cannot hold the runs the levels hold now ([`PolicySpec::admit`]) is
    /// refused with [`LsmError::Config`], and the tree keeps its policy.
    pub fn set_policy(&mut self, policy: PolicySpec) -> Result<()> {
        policy.admit(&self.runs, self.levels.last().map_or(0, |l| l.tombstones()))?;
        self.env.policy = Arc::new(policy);
        Ok(())
    }

    /// Register (or detach, with [`SinkHandle::none`]) the event sink. The
    /// registration propagates to every layer: tree-level merge events plus
    /// the store's cache and device events all flow to the same sink.
    pub fn set_sink(&mut self, sink: SinkHandle) {
        self.env.store.set_sink(sink.clone());
        self.env.sink = sink;
    }

    /// The currently registered sink (detached by default).
    pub fn sink(&self) -> &SinkHandle {
        &self.env.sink
    }

    /// The attached decision ledger, if any.
    pub fn ledger(&self) -> Option<&Arc<DecisionLedger>> {
        self.env.ledger.as_ref()
    }

    /// Key ranges that may have been lost to unrecoverable block
    /// corruption (empty on a healthy tree). Lookups inside these ranges
    /// may have returned [`LsmError::Degraded`]; everything outside them is
    /// unaffected.
    pub fn degraded_ranges(&self) -> Vec<(Key, Key)> {
        self.env.store.degraded_ranges()
    }

    // ------------------------------------------------------------------
    // Background-write-path primitives (memtable handoff)
    // ------------------------------------------------------------------

    /// The configured WAL commit discipline (see [`CommitMode`]).
    pub fn commit_mode(&self) -> CommitMode {
        self.commit
    }

    /// Whether the active memtable has reached L0 capacity (the overflow
    /// condition the inline cascade acts on).
    pub fn mem_at_capacity(&self) -> bool {
        self.mem_room() == 0
    }

    /// Records the active memtable takes before it reaches L0 capacity: no
    /// fewer requests than that can fill it, whatever their keys.
    pub(crate) fn mem_room(&self) -> usize {
        self.l0_capacity.saturating_sub(self.mem.len())
    }

    /// Seal the active memtable: swap in a fresh one and push the full one
    /// onto the immutable queue for a background flush. Emits
    /// [`Event::FlushEnqueued`]. Returns `false` (and seals nothing) when
    /// the active memtable is empty.
    pub fn seal_memtable(&mut self) -> bool {
        if self.mem.is_empty() {
            return false;
        }
        let sealed = std::mem::take(&mut self.mem);
        let records = sealed.len() as u64;
        self.imm.push_back(sealed);
        let backlog = self.imm.len();
        self.env.sink.emit_with(|| Event::FlushEnqueued { records, backlog });
        true
    }

    /// Sealed memtables awaiting a background flush.
    pub fn imm_count(&self) -> usize {
        self.imm.len()
    }

    /// Iterate the sealed memtables, oldest first (checkpointing folds
    /// them into the manifest; scans merge them with the active memtable).
    pub fn imm_memtables(&self) -> impl Iterator<Item = &Memtable> {
        self.imm.iter().map(|m| &**m)
    }

    /// Whether any maintenance is pending: a sealed memtable to flush or
    /// an overflowing level to merge.
    pub fn maintenance_pending(&self) -> bool {
        !self.imm.is_empty() || self.pending_level().is_some()
    }

    /// The shallowest level due a merge, as an index into `runs`: over
    /// capacity under a leveled policy (§II-A), at `fan_in` runs under
    /// Stepped-Merge.
    fn pending_level(&self) -> Option<usize> {
        match self.env.policy.fan_in() {
            None => overflowing_level(&self.env.cfg, &self.levels),
            Some(fan_in) => self.runs.iter().position(|&n| n >= fan_in),
        }
    }

    // ------------------------------------------------------------------
    // Maintenance: snapshot → compute → install → release
    // ------------------------------------------------------------------
    //
    // A step never works on the tree. It works on a `StepSnapshot` (the
    // levels and the memtable it drains, by `Arc`), produces a
    // `StepOutcome` (an edit per touched level, the flushed keys, counter
    // deltas, the blocks written and the blocks replaced), and only
    // `install` changes the tree — in memory, with no device I/O. The
    // halves run back to back here under `&mut self`; a shard runs them
    // with its lock released in between (`Shard::compute`, `Shard::install`). That is safe
    // without re-validation because requests only touch the active
    // memtable and push sealed ones to the *back* of `imm`, and each tree
    // has one maintainer at a time: what a snapshot saw of the levels and
    // of the oldest sealed memtable is still there at install.

    /// Run **one** bounded maintenance step: one policy-chosen merge out of
    /// the oldest sealed memtable if any, otherwise one merge (or level
    /// growth) for the shallowest overflowing level. Returns whether
    /// anything was done. An error leaves the tree as it was.
    ///
    /// This is what a background worker does per job iteration, except
    /// that the worker holds the tree's lock only for the install.
    pub fn maintenance_step(&mut self) -> Result<bool> {
        let Some(snapshot) = self.snapshot_step() else { return Ok(false) };
        // Each step is its own (short) cascade span, so merge spans keep
        // nesting under a cascade exactly as in inline mode.
        let _span = self.env.sink.span(SpanOp::cascade());
        self.run_step(snapshot)?;
        Ok(true)
    }

    /// Both halves of a step and its release, back to back.
    fn run_step(&mut self, snapshot: StepSnapshot) -> Result<()> {
        let mut outcome = snapshot.compute()?;
        self.install(&mut outcome);
        outcome.release()
    }

    /// Run maintenance steps until the tree is quiescent (no sealed
    /// memtables, no overflowing level). Used by clean shutdown and
    /// [`crate::WriteApi::flush`]; a no-op on an inline tree.
    pub fn drain_maintenance(&mut self) -> Result<()> {
        while self.maintenance_step()? {}
        Ok(())
    }

    /// Run merges until no level overflows (§II-A) — the inline half of
    /// [`LsmTree::apply`], which a front-end holding its own put span runs
    /// after [`LsmTree::apply_buffered`]. The same steps as
    /// [`LsmTree::maintenance_step`], draining the live memtable.
    pub(crate) fn run_cascade(&mut self) -> Result<()> {
        // The cascade span opens lazily on the first action, so the common
        // no-op call (most requests trigger nothing) traces nothing.
        let mut cascade: Option<SpanGuard> = None;
        while let Some(snapshot) = self.snapshot(MemSlot::Active) {
            cascade.get_or_insert_with(|| self.env.sink.span(SpanOp::cascade()));
            self.run_step(snapshot)?;
        }
        Ok(())
    }

    /// What the next maintenance step would work from, or `None` when
    /// nothing is pending. Cheap (a few `Arc` clones): a shard takes it
    /// under its read lock.
    pub(crate) fn snapshot_step(&self) -> Option<StepSnapshot> {
        self.snapshot(MemSlot::ImmOldest)
    }

    fn snapshot(&self, slot: MemSlot) -> Option<StepSnapshot> {
        let level = self.pending_level();
        // A stepped level at `fan_in` runs merges before another flush
        // could add a run to it.
        let stepped_merge = level.is_some() && self.env.policy.fan_in().is_some();
        let flush = match slot {
            _ if stepped_merge => None,
            MemSlot::Active => self.mem_at_capacity().then(|| Arc::clone(&self.mem)),
            MemSlot::ImmOldest => self.imm.front().cloned(),
        };
        if flush.is_none() && level.is_none() {
            return None;
        }
        Some(StepSnapshot {
            env: self.env.clone(),
            levels: self.levels.clone(),
            runs: self.runs.clone(),
            flush: flush.map(|mem| (slot, mem)),
            level,
            mem_rr_cursor: self.mem_rr_cursor,
            base: self.installs,
        })
    }

    /// Make a computed step part of the tree: drop the flushed window from
    /// its memtable, splice the edited levels in, fold counters and
    /// cursors. Memory only — this is the section a shard runs under its
    /// write lock, so a reader sees every record in exactly one of
    /// {memtable, level} before and after. The caller
    /// [releases](StepOutcome::release) the outcome afterwards.
    pub(crate) fn install(&mut self, outcome: &mut StepOutcome) {
        assert_eq!(outcome.base, self.installs, "step computed from a state since changed");
        self.installs += 1;
        if outcome.grow {
            self.levels.insert(self.levels.len() - 1, Arc::new(Level::new()));
            self.runs.push(1);
        }
        if let Some((into, run)) = outcome.splice.take() {
            // The runs merged are the whole level above `into`: they end
            // where its runs begin, and the merged run takes their place.
            let front: usize = self.runs.iter().take(into).sum();
            let taken =
                into.checked_sub(1).map_or(0, |above| std::mem::take(&mut self.runs[above]));
            if run.is_some() {
                self.runs.resize(self.runs.len().max(into + 1), 0);
                self.runs[into] += 1;
            }
            self.levels.splice(front - taken..front, run.map(Arc::new));
        }
        if let Some((slot, keys)) = outcome.flushed.take() {
            match slot {
                MemSlot::Active => Arc::make_mut(&mut self.mem).remove_keys(&keys),
                MemSlot::ImmOldest => {
                    let oldest = self.imm.front_mut().expect("the flushed memtable is queued");
                    Arc::make_mut(oldest).remove_keys(&keys);
                    if oldest.is_empty() {
                        self.imm.pop_front();
                    }
                }
            }
        }
        if outcome.mem_rr_cursor.is_some() {
            self.mem_rr_cursor = outcome.mem_rr_cursor;
        }
        for (vec_idx, edit) in outcome.edits.drain(..) {
            Arc::make_mut(&mut self.levels[vec_idx]).apply(edit);
        }
        for (paper_level, delta) in outcome.stats.drain(..) {
            self.stats.level_mut(paper_level).absorb(&delta);
        }
        outcome.installed = true;
    }
}

/// The shallowest on-SSD level at or over capacity, as an index into
/// `levels` — the one place the overflow condition of §II-A is spelled.
fn overflowing_level(cfg: &LsmConfig, levels: &[Arc<Level>]) -> Option<usize> {
    (0..levels.len()).find(|&i| levels[i].num_blocks() >= cfg.level_capacity_blocks(i + 1))
}

/// What one maintenance step works from: the tree's levels and the
/// memtable it flushes, shared by `Arc`, plus the step environment.
/// Consumed by [`compute`](StepSnapshot::compute), so the `Arc`s are gone
/// before the outcome is installed and the install edits in place.
pub(crate) struct StepSnapshot {
    env: StepEnv,
    levels: Vec<Arc<Level>>,
    runs: Vec<usize>,
    /// The memtable to flush a window of; `None` when the step relieves
    /// an overflowing level instead.
    flush: Option<(MemSlot, Arc<Memtable>)>,
    /// The level due a merge, if any (an index into `runs`).
    level: Option<usize>,
    mem_rr_cursor: Option<Key>,
    base: u64,
}

/// What a maintenance step computed, waiting to be
/// [installed](LsmTree::install): an *edit* of the tree, not a copy.
///
/// It owns the step's blocks until [`release`](StepOutcome::release):
/// installed, the blocks its edits replaced are freed; never installed —
/// the compute failed half-way, or the tree went away between the halves
/// — the blocks it wrote are. Dropping it releases too, so no path leaves
/// a block both referenced and free, or neither.
pub(crate) struct StepOutcome {
    store: Arc<Store>,
    base: u64,
    /// Insert an empty level above the bottom one (§II-A growth).
    grow: bool,
    /// Keys of the flushed window and the memtable they leave.
    flushed: Option<(MemSlot, Vec<Key>)>,
    mem_rr_cursor: Option<Key>,
    /// Per touched level (index into `levels`): the splice and bookkeeping.
    edits: Vec<(usize, LevelEdit)>,
    /// A Stepped-Merge step's change of the runs: level `.0` gains run `.1`
    /// (unless the merge left nothing) at its front, and the level above
    /// it — none for a flush, into L1 — gives up every run.
    splice: Option<(usize, Option<Level>)>,
    /// Per paper level: counter deltas.
    stats: Vec<(usize, LevelStats)>,
    blocks: StepBlocks,
    installed: bool,
}

impl StepOutcome {
    fn stats(&mut self, paper_level: usize) -> &mut LevelStats {
        let at = match self.stats.iter().position(|(p, _)| *p == paper_level) {
            Some(at) => at,
            None => {
                self.stats.push((paper_level, LevelStats::default()));
                self.stats.len() - 1
            }
        };
        &mut self.stats[at].1
    }

    /// Free the blocks this step leaves unreferenced (see the type docs).
    /// Device I/O: call it with no lock held. Idempotent.
    pub(crate) fn release(&mut self) -> Result<()> {
        let blocks = std::mem::take(&mut self.blocks);
        self.store.free_all(if self.installed { &blocks.retired } else { &blocks.created })
    }
}

impl Drop for StepOutcome {
    fn drop(&mut self) {
        // Errors have nowhere to go from here; callers that care call
        // `release` themselves first.
        let _ = self.release();
    }
}

impl StepSnapshot {
    /// The unlocked half of a step: choose, read, merge, write. Events
    /// and spans are emitted here, in the order the inline cascade always
    /// emitted them. An `Err` releases every block written so far.
    pub(crate) fn compute(self) -> Result<StepOutcome> {
        let mut out = StepOutcome {
            store: Arc::clone(&self.env.store),
            base: self.base,
            grow: false,
            flushed: None,
            mem_rr_cursor: None,
            edits: Vec::new(),
            splice: None,
            stats: Vec::new(),
            blocks: StepBlocks::default(),
            installed: false,
        };
        let stepped = self.env.policy.fan_in().is_some();
        match (&self.flush, self.level) {
            (Some((slot, mem)), _) if stepped => self.flush_run(*slot, mem, &mut out)?,
            (Some((slot, mem)), _) => self.flush_window(*slot, mem, &mut out)?,
            (None, None) => unreachable!("a snapshot is only taken with work pending"),
            (None, Some(level)) if stepped => self.fold_runs(level, &mut out)?,
            (None, Some(vec_idx)) => {
                if vec_idx + 1 == self.levels.len() {
                    // The overflowing bottom level `L_{h-1}` becomes `L_h`;
                    // an empty level takes its place (§II-A).
                    out.grow = true;
                    let new_height = self.levels.len() + 2;
                    self.env.sink.emit_with(|| Event::LevelAdded { new_height });
                } else {
                    self.merge_level(vec_idx, &mut out)?;
                }
            }
        }
        Ok(out)
    }

    /// Stepped-Merge's flush: the whole of `mem` as a new run of L1.
    fn flush_run(&self, slot: MemSlot, mem: &Memtable, out: &mut StepOutcome) -> Result<()> {
        let _span = self.env.sink.span(SpanOp::flush(true));
        let records = mem.len() as u64;
        self.env.sink.emit_with(|| Event::MemtableFlush { records, full: true });
        out.flushed = Some((slot, mem.iter().map(|r| r.key).collect()));
        let run = self.write_run(1, mem.iter().cloned().map(Ok), out)?;
        out.splice = Some((0, Some(run)));
        Ok(())
    }

    /// Stepped-Merge's merge: every run of `runs[level]`, newest first,
    /// into one run at the front of the next level. Tombstones go when
    /// nothing lies below to cancel; reads count at the level merged out.
    fn fold_runs(&self, level: usize, out: &mut StepOutcome) -> Result<()> {
        let (sink, target_paper) = (&self.env.sink, level + 2);
        let start: usize = self.runs[..level].iter().sum();
        let (inputs, below) = self.levels[start..].split_at(self.runs[level]);
        let _span = sink.span(SpanOp::merge(target_paper, true));
        sink.emit_with(|| Event::MergeStart { target_level: target_paper, full: true });
        let src_records: u64 = inputs.iter().map(|r| r.records()).sum();
        let reads: u64 = inputs.iter().map(|r| r.num_blocks() as u64).sum();
        let deepest = below.iter().all(|r| r.is_empty());
        let sources =
            inputs.iter().map(|r| Source::blocks(&self.env.store, r.handles(), 0, Key::MAX));
        let merged = Merge::new(sources.collect())
            .filter(|r| !matches!(r, Ok(r) if deepest && r.is_tombstone()));
        let run = self.write_run(target_paper, merged, out)?;
        out.stats(target_paper).blocks_read += reads;
        out.blocks.retired.extend(inputs.iter().flat_map(|r| r.handles()).cloned());
        sink.emit_with(|| Event::MergeFinish {
            target_level: target_paper,
            full: true,
            src_records,
            writes: run.num_blocks() as u64,
            reads,
            preserved: 0,
            max_key: run.max_key().unwrap_or(0),
        });
        out.splice = Some((level + 1, (!run.is_empty()).then_some(run)));
        Ok(())
    }

    /// Write `records` — ordered, keys unique — `B` to a block as one run
    /// of `paper_level`, and count it there as a merge into it.
    fn write_run(
        &self,
        paper_level: usize,
        mut records: impl Iterator<Item = Result<Record>>,
        out: &mut StepOutcome,
    ) -> Result<Level> {
        let mut run = Level::new();
        loop {
            let chunk: Vec<Record> =
                records.by_ref().take(self.env.cfg.block_capacity()).collect::<Result<_>>()?;
            if chunk.is_empty() {
                break;
            }
            let handle = self.env.store.write_block(chunk)?;
            out.blocks.created.push(handle.clone());
            run.push(handle);
        }
        let ls = out.stats(paper_level);
        ls.blocks_written += run.num_blocks() as u64;
        ls.merges_in += 1;
        ls.records_in += run.records();
        Ok(run)
    }

    fn engine(&self) -> MergeEngine<'_> {
        let env = &self.env;
        MergeEngine::new(
            &env.store,
            env.cfg.block_capacity(),
            env.cfg.waste_eps,
            env.preserve_blocks,
        )
        .with_pairwise(env.enforce_pairwise)
    }

    /// Ask the policy what to merge out of `runs` into `levels[target_idx]`.
    fn choose(
        &self,
        runs: &[RunMeta],
        target_idx: usize,
        src_rr_cursor: Option<Key>,
    ) -> MergeChoice {
        let cfg = &self.env.cfg;
        self.env.policy.choose(&MergeCtx {
            src_runs: runs,
            target: &self.levels[target_idx],
            // δ·K of the source, which sits one above the target.
            window_blocks: cfg.merge_window_blocks(target_idx),
            target_paper_level: target_idx + 1,
            target_capacity: cfg.level_capacity_blocks(target_idx + 1),
            target_is_bottom: target_idx + 1 == self.levels.len(),
            src_rr_cursor,
        })
    }

    /// Announce `choice` (event, ledger row with its candidate table);
    /// returns the ledger token the merge closes. Its predicted cost is
    /// counted only for a consumer: the event's closure runs only with a
    /// sink attached.
    fn announce(&self, runs: &[RunMeta], target_idx: usize, choice: MergeChoice) -> Option<u64> {
        let (env, target) = (&self.env, self.levels[target_idx].handles());
        let predicted = || predicted_writes(runs, target, choice, None);
        env.sink.emit_with(|| Event::PolicyDecision {
            target_level: target_idx + 1,
            full: choice == MergeChoice::Full,
            predicted_writes: predicted(),
        });
        env.ledger.as_ref().map(|l| {
            let window_blocks = env.cfg.merge_window_blocks(target_idx);
            let cands = enumerate_candidates(runs, target, window_blocks);
            l.open(env.policy.name(), target_idx + 1, cands, choice, predicted())
        })
    }

    /// Flush one policy-chosen unit (window or all) of `mem` into L1.
    fn flush_window(&self, slot: MemSlot, mem: &Memtable, out: &mut StepOutcome) -> Result<()> {
        let b = self.env.cfg.block_capacity();
        let runs = mem.virtual_blocks(b);
        debug_assert!(!runs.is_empty(), "flush of an empty memtable");
        let choice = self.choose(&runs, 0, self.mem_rr_cursor);
        // Covers the window copy and the L1 merge; the merge span nests
        // underneath.
        let _flush_span = self.env.sink.span(SpanOp::flush(choice == MergeChoice::Full));
        let ledger_token = self.announce(&runs, 0, choice);
        let (window, kind) = match choice {
            MergeChoice::Full => (0..runs.len(), MergeKind::Full),
            MergeChoice::Window(w) => (w.start..w.start + w.len, MergeKind::Partial),
        };
        // The memtable keeps the window until the merge is installed.
        let records = mem.window(&runs[window]);
        let src_records = records.len() as u64;
        out.flushed = Some((slot, records.iter().map(|r| r.key).collect()));
        self.env.sink.emit_with(|| Event::MemtableFlush {
            records: src_records,
            full: kind == MergeKind::Full,
        });
        let src = MergeSource::Records(records);
        let max_key = self.merge_down(0, src, src_records, kind, ledger_token, out)?;
        out.mem_rr_cursor = Some(max_key);
        Ok(())
    }

    /// Merge one policy-chosen unit of overflowing `levels[src_idx]` one
    /// level down, with the source-side waste maintenance of §II-B.
    fn merge_level(&self, src_idx: usize, out: &mut StepOutcome) -> Result<()> {
        debug_assert!(src_idx + 1 < self.levels.len(), "bottom level never merges down");
        let src_paper = src_idx + 1;
        let src = &*self.levels[src_idx];
        let runs = runs_of_handles(src.handles());
        let choice = self.choose(&runs, src_idx + 1, src.rr_cursor);
        let ledger_token = self.announce(&runs, src_idx + 1, choice);
        let (range, kind) = match choice {
            MergeChoice::Full => (0..runs.len(), MergeKind::Full),
            MergeChoice::Window(w) => (w.start..w.start + w.len, MergeKind::Partial),
        };
        let x = src.handles()[range.clone()].to_vec();
        let src_records: u64 = x.iter().map(|h| u64::from(h.count)).sum();
        let mut src_draft = LevelDraft::new(src);
        src_draft.replace(range.clone(), Vec::new());

        // Source-side waste maintenance (§II-B cases 1 & 2).
        let engine = self.engine();
        {
            // The seam fix is its own span (not part of the merge below), so
            // its writes never pollute merge-span attribution.
            let _span = self.env.sink.span(SpanOp::pairwise_fix(src_paper));
            let fix = engine.fix_pair_if_needed(&mut src_draft, range.start, &mut out.blocks)?;
            if let Some(fix) = fix {
                let ls = out.stats(src_paper);
                ls.pairwise_fixes += 1;
                ls.blocks_written += fix.writes;
                ls.blocks_read += fix.reads;
                self.env.sink.emit_with(|| Event::PairwiseFix {
                    level: src_paper,
                    writes: fix.writes,
                    reads: fix.reads,
                });
            }
        }
        self.compact_if_wasteful(src_paper, &mut src_draft, out)?;

        let src = MergeSource::Blocks(x);
        let max_key = self.merge_down(src_idx + 1, src, src_records, kind, ledger_token, out)?;
        src_draft.edit.rr_cursor = Some(max_key);
        out.edits.push((src_idx, src_draft.finish()));
        Ok(())
    }

    /// Merge `src` into `levels[target_idx]` and do target-side
    /// maintenance, statistics, and events. Returns the largest key of the
    /// merged range — the source's new round-robin cursor.
    fn merge_down(
        &self,
        target_idx: usize,
        src: MergeSource,
        src_records: u64,
        kind: MergeKind,
        ledger_token: Option<u64>,
        out: &mut StepOutcome,
    ) -> Result<Key> {
        let sink = &self.env.sink;
        let target_paper = target_idx + 1;
        let full = kind == MergeKind::Full;
        // Every device operation of the merge — including in-merge
        // pairwise fixes, whose writes `MergeFinish` folds into `writes` —
        // lands inside this span; target-side compaction opens a child span
        // of its own, keeping merge-span attribution equal to
        // `MergeFinish::writes` exactly.
        let _merge_span = sink.span(SpanOp::merge(target_paper, full));
        sink.emit_with(|| Event::MergeStart { target_level: target_paper, full });
        let mut target = LevelDraft::new(&self.levels[target_idx]);
        let below = &self.levels[target_idx + 1..];
        let merged = self.engine().merge(&mut target, below, src, &mut out.blocks)?;

        let ls = out.stats(target_paper);
        ls.merges_in += 1;
        ls.blocks_written += merged.writes;
        ls.blocks_read += merged.reads;
        ls.blocks_preserved += merged.preserved;
        ls.records_in += src_records;
        sink.emit_with(|| Event::MergeFinish {
            target_level: target_paper,
            full,
            src_records,
            writes: merged.writes,
            reads: merged.reads,
            preserved: merged.preserved,
            max_key: merged.max_key,
        });
        // Reconcile the ledger row with the same `writes` the MergeFinish
        // above reported, then surface the closed decision as an event.
        if let (Some(ledger), Some(token)) = (self.env.ledger.as_ref(), ledger_token) {
            if let Some(closed) = ledger.close(token, merged.writes) {
                sink.emit_with(|| Event::LedgerOutcome {
                    target_level: closed.target_level,
                    full: closed.full,
                    candidates: closed.candidates,
                    predicted: closed.predicted,
                    best_predicted: closed.best_predicted,
                    actual: closed.actual,
                });
            }
        }

        // Target-side level-wise waste check (§II-B case 4).
        self.compact_if_wasteful(target_paper, &mut target, out)?;
        out.edits.push((target_idx, target.finish()));
        Ok(merged.max_key)
    }

    /// The level-wise waste constraint (§II-B): compact the drafted level
    /// if its waste factor exceeds ε.
    fn compact_if_wasteful(
        &self,
        paper_level: usize,
        level: &mut LevelDraft<'_>,
        out: &mut StepOutcome,
    ) -> Result<()> {
        let engine = self.engine();
        if !self.env.enforce_level_waste || !engine.wasteful(level.num_blocks(), level.records()) {
            return Ok(());
        }
        let _span = self.env.sink.span(SpanOp::compaction(paper_level));
        let done = engine.compact(level, &mut out.blocks)?;
        let ls = out.stats(paper_level);
        ls.compactions += 1;
        ls.compaction_writes += done.writes;
        ls.blocks_written += done.writes;
        ls.blocks_read += done.reads;
        self.env.sink.emit_with(|| Event::Compaction { level: paper_level, writes: done.writes });
        Ok(())
    }
}

impl crate::api::WriteApi for LsmTree {
    fn apply(&mut self, req: Request) -> Result<()> {
        LsmTree::apply(self, req)
    }

    fn flush(&mut self) -> Result<()> {
        self.drain_maintenance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::MixedParams;
    use crate::record::mix64;
    use crate::store::{CachedRow, RowHits};

    fn tiny_cfg() -> LsmConfig {
        // 256-byte blocks, 4-byte payloads → record 17 B, B = 14.
        LsmConfig {
            block_size: 256,
            payload_size: 4,
            k0_blocks: 4, // L0 holds 56 records
            gamma: 4,
            cache_blocks: 64,
            merge_rate: 0.25,
            ..LsmConfig::default()
        }
    }

    fn tree_with(policy: PolicySpec) -> LsmTree {
        LsmTree::with_mem_device(tiny_cfg(), TreeOptions::builder().policy(policy).build(), 1 << 16)
            .unwrap()
    }

    fn payload(k: Key) -> Vec<u8> {
        vec![(k % 251) as u8; 4]
    }

    /// A get's row answers while the levels stand where they stood when it
    /// was kept. A put to its key after that is answered from the memtable,
    /// and once the put has reached the levels — through installs — the old
    /// row, still cached, answers nothing: under a leveled policy, and
    /// under Stepped-Merge, where the flush writes the newer version into a
    /// new run that the walk meets first.
    #[test]
    fn a_row_answers_until_an_install_and_never_over_a_newer_put() {
        for policy in [PolicySpec::ChooseBest, PolicySpec::SteppedMerge { fan_in: 3 }] {
            a_row_answers_until_an_install_under(policy);
        }
    }

    fn a_row_answers_until_an_install_under(policy: PolicySpec) {
        // 1 KiB blocks and a cache of eight, which readers fill with other
        // blocks, so a get that reads the device keeps its row.
        let cfg = LsmConfig { block_size: 1024, cache_blocks: 8, ..tiny_cfg() };
        let opts = TreeOptions::builder().policy(policy).build();
        let mut t = LsmTree::with_mem_device(cfg, opts, 1 << 12).unwrap();
        for k in 0..2_000 {
            t.put(k, payload(k)).unwrap();
        }
        // Under Stepped-Merge, flushes of one record until L1 holds no run:
        // the flush below then merges nothing, freeing no block read here.
        while t.policy().fan_in().is_some() && t.run_counts()[0] > 0 {
            t.apply_buffered(Request::Put(1_999, Bytes::from(payload(1_999)))).unwrap();
            assert!(t.seal_memtable());
            t.drain_maintenance().unwrap();
        }
        assert!(t.memtable().get(7).is_none(), "key 7 is in a level");
        // Every live block read, then pushed out: the cache is full of
        // fillers, whatever room the merges' frees left in it.
        let live: Vec<_> = t.levels().iter().flat_map(|l| l.handles()).cloned().collect();
        live.iter().for_each(|h| drop(t.store().read_block(h).unwrap()));
        t.store().evict_by_reading(&live.iter().map(|h| h.id).collect::<Vec<_>>());
        let (epoch, reads) = (t.installs, t.store().io_snapshot().reads);
        assert_eq!(t.get(7).unwrap().as_deref(), Some(&payload(7)[..]));
        assert_eq!(t.store().io_snapshot().reads, reads + 1);
        assert_eq!(t.get(7).unwrap().as_deref(), Some(&payload(7)[..]));
        assert_eq!(t.store().io_snapshot().reads, reads + 1, "the row answered");
        assert_eq!(t.store().row_hits().current, 1);

        t.apply_buffered(Request::Put(7, Bytes::from(vec![9u8; 4]))).unwrap();
        assert_eq!(t.get(7).unwrap().as_deref(), Some(&[9u8; 4][..]), "the memtable answers");
        assert!(t.seal_memtable());
        t.drain_maintenance().unwrap();
        assert!(t.installs > epoch && t.imm_count() == 0 && t.memtable().get(7).is_none());
        // The stale row is still cached when the walk runs (asking for it
        // is one more row hit); the walk, which keeps its own row, takes
        // none.
        match t.store().cached_row(epoch, 7) {
            CachedRow::Current(stale, _) => assert_eq!(stale.payload[..], payload(7)[..]),
            other => panic!("the stale row is gone, {other:?}: no test"),
        }
        assert_eq!(t.get(7).unwrap().as_deref(), Some(&[9u8; 4][..]), "the level answers");
        assert_eq!(t.store().row_hits(), RowHits { current: 2, earlier: 0 });
    }

    /// A write-only run evicts nothing from a full cache: written blocks
    /// enter it only into room, and merge inputs and the blocks a seam fix
    /// fuses are read past it. Puts and deletes cascade merges and pairwise
    /// fixes through a cache of four blocks.
    #[test]
    fn a_write_only_run_evicts_nothing_from_a_full_cache() {
        let cfg = LsmConfig { cache_blocks: 4, ..tiny_cfg() };
        let opts = TreeOptions::builder().policy(PolicySpec::RoundRobin).build();
        let mut t = LsmTree::with_mem_device(cfg, opts, 1 << 16).unwrap();
        let full = |t: &LsmTree| {
            let cache = t.store().cache_stats();
            cache.resident + 256 > cache.capacity
        };
        // Seeded puts and deletes over 20 000 keys: round-robin windows cut
        // the levels at arbitrary seams, some of which leave two small
        // neighbours to fuse.
        let mut x = 0x5EED_u64;
        let mut request = |t: &mut LsmTree| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = (x >> 20) % 20_000;
            match x % 10 < 3 {
                true => t.delete(key).unwrap(),
                false => t.put(key, payload(key)).unwrap(),
            }
        };
        while !full(&t) {
            request(&mut t);
        }
        let evictions = t.store().cache_stats().evictions;
        for _ in 0..40_000 {
            request(&mut t);
        }
        assert_eq!(t.store().cache_stats().evictions, evictions);
        let fixes: u64 = t.stats().levels.iter().map(|l| l.pairwise_fixes).sum();
        assert!(fixes > 0, "no pairwise fix: no test");
        assert!(t.store().io_snapshot().reads > 0, "no merge read past the cache: no test");
    }

    fn fill(t: &mut LsmTree, n: u64, stride: u64) {
        for k in 0..n {
            t.put(k * stride, payload(k)).unwrap();
        }
    }

    #[test]
    fn sink_receives_merge_events() {
        let sink = Arc::new(observe::VecSink::new());
        let mut t = LsmTree::with_mem_device(
            tiny_cfg(),
            TreeOptions::builder()
                .policy(PolicySpec::Full)
                .sink(SinkHandle::new(sink.clone()))
                .build(),
            1 << 16,
        )
        .unwrap();
        fill(&mut t, 500, 3);
        let events = sink.drain();
        assert!(events.iter().any(|e| matches!(e, Event::MergeFinish { target_level: 1, .. })));
        assert!(sink.is_empty(), "drained");

        t.set_sink(SinkHandle::none());
        fill(&mut t, 100, 3);
        assert!(sink.is_empty(), "detached sink receives nothing");
    }

    #[test]
    fn ledger_rows_reconcile_exactly_with_merge_finish_writes() {
        let sink = Arc::new(observe::VecSink::new());
        let ledger = Arc::new(DecisionLedger::new(4096));
        let mut t = LsmTree::with_mem_device(
            tiny_cfg(),
            TreeOptions::builder()
                .policy(PolicySpec::ChooseBest)
                .sink(SinkHandle::new(sink.clone()))
                .ledger(Arc::clone(&ledger))
                .build(),
            1 << 16,
        )
        .unwrap();
        fill(&mut t, 2000, 13);
        let rows = ledger.rows();
        assert!(!rows.is_empty(), "sustained inserts must have merged");
        let finishes: Vec<u64> = sink
            .drain()
            .iter()
            .filter_map(|e| match e {
                Event::MergeFinish { writes, .. } => Some(*writes),
                _ => None,
            })
            .collect();
        assert_eq!(rows.len(), finishes.len(), "one ledger row per MergeFinish");
        for (row, writes) in rows.iter().zip(&finishes) {
            assert_eq!(row.actual, Some(*writes), "row {} actual != MergeFinish writes", row.id);
        }
        assert_eq!(ledger.totals().closed, ledger.decisions(), "every decision reconciled");
        assert_eq!(
            ledger.cumulative_regret(),
            0,
            "ChooseBest picks the min-predicted candidate by construction"
        );
    }

    #[test]
    fn every_window_a_policy_chooses_is_in_the_ledgers_table() {
        // RR and the aligned variant choose a tail window shorter than δ·K
        // at the end of the source; the table listed full-width windows
        // only, and `DecisionLedger::open`'s debug check that the choice is
        // in the table failed on the first such choice.
        for policy in [PolicySpec::RoundRobin, PolicySpec::ChooseBestAligned] {
            let ledger = Arc::new(DecisionLedger::new(1 << 16));
            let opts =
                TreeOptions::builder().policy(policy.clone()).ledger(Arc::clone(&ledger)).build();
            let mut t = LsmTree::with_mem_device(tiny_cfg(), opts, 1 << 16).unwrap();
            let mut x = 7u64;
            for _ in 0..20_000 {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                t.put(mix64(x), payload(x)).unwrap();
            }
            let rows = ledger.rows();
            assert_eq!(rows.len() as u64, ledger.decisions(), "no row evicted");
            let tails = rows
                .iter()
                .filter(|r| {
                    assert!(r.candidates.iter().any(|c| c.choice == r.chosen), "row {}", r.id);
                    let widest = r.candidates.iter().filter_map(|c| match c.choice {
                        MergeChoice::Window(w) => Some(w.len),
                        MergeChoice::Full => None,
                    });
                    matches!(r.chosen, MergeChoice::Window(w) if Some(w.len) < widest.max())
                })
                .count();
            assert!(tails > 0, "{}: no tail window chosen in {} merges", policy.name(), rows.len());
        }
    }

    #[test]
    fn full_policy_accrues_regret_in_ledger() {
        let ledger = Arc::new(DecisionLedger::new(4096));
        let mut t = LsmTree::with_mem_device(
            tiny_cfg(),
            TreeOptions::builder().policy(PolicySpec::Full).ledger(Arc::clone(&ledger)).build(),
            1 << 16,
        )
        .unwrap();
        fill(&mut t, 3000, 7);
        let totals = ledger.totals();
        assert_eq!(totals.full_merges, totals.decisions, "Full policy only makes full merges");
        assert!(
            totals.regret > 0,
            "full merges over a populated target must beat some window somewhere"
        );
        // Detached trees never touch a ledger.
        let bare = tree_with(PolicySpec::Full);
        assert!(bare.ledger().is_none());
    }

    #[test]
    fn every_policy_reports_its_name_to_the_tree_and_the_ledger() {
        for (spec, name) in [
            (PolicySpec::Full, "Full"),
            (PolicySpec::RoundRobin, "RR"),
            (PolicySpec::ChooseBest, "ChooseBest"),
            (PolicySpec::ChooseBestAligned, "ChooseBestAligned"),
            (PolicySpec::TestMixed, "Mixed"),
            (PolicySpec::Mixed(MixedParams::default()), "Mixed"),
        ] {
            let ledger = Arc::new(DecisionLedger::new(4096));
            let mut t = LsmTree::with_mem_device(
                tiny_cfg(),
                TreeOptions::builder().policy(spec).ledger(Arc::clone(&ledger)).build(),
                1 << 16,
            )
            .unwrap();
            assert_eq!(t.policy_name(), name);
            fill(&mut t, 2000, 13);
            let rows = ledger.rows();
            assert!(!rows.is_empty(), "{name}: sustained inserts must have merged");
            assert!(rows.iter().all(|r| r.policy == name), "{name}: a row names another policy");
        }
    }

    /// A computed step owns its blocks until it is released, installed or
    /// not: dropped between the halves (shutdown, crash) it gives back what
    /// it wrote; installed, what it replaced. Never both, never neither.
    #[test]
    fn a_computed_step_releases_its_blocks_installed_or_not() {
        let mut t = tree_with(PolicySpec::ChooseBest);
        let referenced =
            |t: &LsmTree| t.levels().iter().map(|l| l.num_blocks() as u64).sum::<u64>();
        let buffer_and_seal = |t: &mut LsmTree, base: u64| {
            let mut k = base;
            while !t.mem_at_capacity() {
                t.apply_buffered(Request::Put(k * 7, Bytes::from(payload(k)))).unwrap();
                k += 1;
            }
            assert!(t.seal_memtable());
        };
        // A tree with some depth, then one more sealed memtable to flush.
        for round in 0..40 {
            buffer_and_seal(&mut t, round * 31);
            t.drain_maintenance().unwrap();
        }
        assert!(t.height() >= 3);
        buffer_and_seal(&mut t, 5);
        assert_eq!(t.store().live_blocks(), referenced(&t));
        let ids = |t: &LsmTree| -> Vec<Vec<_>> {
            t.levels().iter().map(|l| l.handles().iter().map(|h| h.id).collect()).collect()
        };
        let before = ids(&t);

        // Computed, never installed.
        let outcome = t.snapshot_step().unwrap().compute().unwrap();
        assert!(t.store().live_blocks() > referenced(&t), "the step wrote its output");
        drop(outcome);
        assert_eq!(t.store().live_blocks(), referenced(&t), "uninstalled output not released");
        assert_eq!(before, ids(&t), "an uninstalled step changed the tree");
        crate::verify::check_tree(&t, true).expect("every referenced block still reads back");

        // Computed and installed; a second release (the drop) frees nothing more.
        let mut outcome = t.snapshot_step().unwrap().compute().unwrap();
        t.install(&mut outcome);
        outcome.release().unwrap();
        assert_eq!(t.store().live_blocks(), referenced(&t), "replaced blocks not released");
        drop(outcome);
        assert_eq!(t.store().live_blocks(), referenced(&t));
        t.drain_maintenance().unwrap();
        crate::verify::check_tree(&t, true).unwrap();
        assert_eq!(t.store().live_blocks(), referenced(&t));
    }

    /// The §VI trade: Stepped-Merge writes each record about once a
    /// level, where a leveled tree rewrites the next level again and again;
    /// the price is more runs for a lookup to probe.
    #[test]
    fn stepped_merge_writes_less_than_leveled_lsm() {
        let cfg = LsmConfig { k0_blocks: 2, ..tiny_cfg() };
        let stepped = TreeOptions::builder().policy(PolicySpec::SteppedMerge { fan_in: 4 });
        let mut sm = LsmTree::with_mem_device(cfg.clone(), stepped.build(), 1 << 16).unwrap();
        let mut lsm = LsmTree::with_mem_device(cfg, TreeOptions::default(), 1 << 16).unwrap();
        for k in 0..8_000u64 {
            let key = k.wrapping_mul(2_654_435_761) % 1_000_000;
            sm.put(key, vec![1u8; 4]).unwrap();
            lsm.put(key, vec![1u8; 4]).unwrap();
        }
        let (w_sm, w_lsm) = (sm.stats().total_blocks_written(), lsm.stats().total_blocks_written());
        assert!(w_sm < w_lsm, "stepped-merge {w_sm} should write less than leveled {w_lsm}");
        assert!(sm.run_counts().iter().any(|&n| n >= 2), "runs {:?}", sm.run_counts());
        assert!(sm.levels().len() > sm.height() - 1, "more runs than levels");
        // A merge's reads count at the level it merges into, as a leveled
        // merge's do: each level read every block the one above wrote and
        // no longer holds (none into L1), and the bottom merged nothing out.
        let (stats, mut runs, mut merged_out, mut reads) = (sm.stats(), sm.levels().iter(), 0, 0);
        for (i, &n) in sm.run_counts().iter().enumerate() {
            let held: u64 = runs.by_ref().take(n).map(|r| r.num_blocks() as u64).sum();
            assert_eq!(stats.level(i + 1).blocks_read, merged_out, "L{}", i + 1);
            reads += merged_out;
            merged_out = stats.level(i + 1).blocks_written - held;
        }
        assert_eq!((merged_out, stats.total_blocks_read()), (0, reads));
        assert!(reads > 0);
        crate::verify::check_tree(&sm, true).unwrap();
    }

    #[test]
    fn rejects_bad_fan_in() {
        for fan_in in [0, 1] {
            let opts = TreeOptions::builder().policy(PolicySpec::SteppedMerge { fan_in }).build();
            match LsmTree::with_mem_device(tiny_cfg(), opts, 1 << 10) {
                Err(LsmError::Config(_)) => {}
                other => panic!("fan-in {fan_in}: {:?}", other.err()),
            }
        }
    }

    /// A policy swap that the runs the levels hold cannot take is refused,
    /// and the tree keeps its policy: a leveled policy over a level of two
    /// runs or over a bottom run that holds tombstones, or a fan-in under
    /// the runs a level holds. Across the line and back is fine while every
    /// level is one run and the bottom holds no tombstone.
    #[test]
    fn set_policy_refuses_a_policy_that_cannot_hold_the_runs() {
        let mut t = tree_with(PolicySpec::ChooseBest);
        fill(&mut t, 600, 7);
        assert!(t.run_counts().iter().all(|&n| n == 1) && t.height() >= 2);
        t.set_policy(PolicySpec::SteppedMerge { fan_in: 3 }).unwrap();
        t.set_policy(PolicySpec::Full).unwrap();
        let mut t = tree_with(PolicySpec::SteppedMerge { fan_in: 4 });
        let cap = t.config().l0_capacity_records() as u64;
        fill(&mut t, 3 * cap, 7);
        assert_eq!(t.run_counts()[0], 3);
        for policy in [
            PolicySpec::ChooseBest,
            PolicySpec::TestMixed,
            PolicySpec::SteppedMerge { fan_in: 2 },
            PolicySpec::SteppedMerge { fan_in: 1 },
        ] {
            match t.set_policy(policy.clone()) {
                Err(LsmError::Config(_)) => assert_eq!(t.policy_name(), "SteppedMerge"),
                other => panic!("{policy:?} over runs {:?}: {other:?}", t.run_counts()),
            }
        }
        // Three runs are a merge still to run at a fan-in of three.
        t.set_policy(PolicySpec::SteppedMerge { fan_in: 3 }).unwrap();
        assert!(t.maintenance_pending());
        t.put(0, payload(0)).unwrap();
        assert_eq!(t.run_counts(), [0, 1]);
        crate::verify::check_tree(&t, true).unwrap();
        // A flush keeps its deletes: one flush of puts and deletes is a
        // stepped L1 of one run, the bottom, with tombstones no leveled
        // merge would drop.
        let mut t = tree_with(PolicySpec::SteppedMerge { fan_in: 3 });
        for k in 0..cap {
            if k % 2 == 0 { t.put(k, payload(k)) } else { t.delete(k) }.unwrap();
        }
        assert_eq!(t.run_counts(), [1]);
        assert!(t.levels()[0].tombstones() > 0);
        match t.set_policy(PolicySpec::ChooseBest) {
            Err(LsmError::Config(_)) => assert_eq!(t.policy_name(), "SteppedMerge"),
            other => panic!("ChooseBest over a bottom with tombstones: {other:?}"),
        }
        crate::verify::check_tree(&t, true).unwrap();
    }

    #[test]
    fn mismatched_device_block_size_rejected() {
        let dev = Arc::new(sim_ssd::MemDevice::with_block_size(16, 512));
        match LsmTree::new(tiny_cfg(), TreeOptions::default(), dev) {
            Err(LsmError::Config(_)) => {}
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("mismatched block size must be rejected"),
        }
    }

    #[test]
    fn policy_swap_preserves_data() {
        let mut t = tree_with(PolicySpec::Full);
        fill(&mut t, 1000, 9);
        t.set_policy(PolicySpec::ChooseBest).unwrap();
        assert_eq!(t.policy_name(), "ChooseBest");
        fill(&mut t, 1000, 9); // overwrite same keys
        for k in (0..1000u64).step_by(97) {
            assert!(t.get(k * 9).unwrap().is_some());
        }
    }

    #[test]
    fn preserve_flag_changes_write_counts() {
        // Same workload with and without preservation: preserved blocks
        // can only reduce writes.
        let mut with = LsmTree::with_mem_device(
            tiny_cfg(),
            TreeOptions::builder().policy(PolicySpec::ChooseBest).preserve_blocks(true).build(),
            1 << 16,
        )
        .unwrap();
        let mut without = LsmTree::with_mem_device(
            tiny_cfg(),
            TreeOptions::builder().policy(PolicySpec::ChooseBest).preserve_blocks(false).build(),
            1 << 16,
        )
        .unwrap();
        fill(&mut with, 3000, 17);
        fill(&mut without, 3000, 17);
        let w_with = with.stats().total_blocks_written();
        let w_without = without.stats().total_blocks_written();
        assert!(
            w_with <= w_without,
            "preservation must not increase writes: {w_with} vs {w_without}"
        );
        assert!(with.stats().total_blocks_preserved() > 0, "some preservation expected");
    }

    #[test]
    fn record_count_and_bytes() {
        let mut t = tree_with(PolicySpec::Full);
        fill(&mut t, 100, 2);
        assert!(t.record_count() >= 100);
        assert_eq!(t.approx_bytes(), t.record_count() * 17);
    }
}
