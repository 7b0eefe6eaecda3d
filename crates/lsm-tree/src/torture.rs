//! Seeded crash-torture cycles: writers interleaved with maintenance,
//! syncs and checkpoints, a power cut, recovery from the durable image, and
//! a durability-invariant check.
//!
//! One [`run_crash_cycle`] does, deterministically per seed:
//!
//! 1. Build a [`ShardedLsmTree`] with a WAL directory over one
//!    [`sim_ssd::FaultDevice`] per shard (in memory or over a file), with
//!    low transient read/write error rates (absorbed by the store's
//!    retries), a WAL-fsync fault rate, and a power cut at a random
//!    device-op count on one seeded shard. Maintenance runs inline, or on
//!    a [`SimExecutor`] one half-step (a compute or an install) at a time.
//! 2. Run the workload as seeded choices, one per tick: a request or a
//!    batch of requests ([`ShardedLsmTree::write_batch`]) from one of the
//!    writers, a read checked against a model of the applied writes, a
//!    maintenance half-step, one half of a group sync (flush and note the
//!    log's length, then fsync and publish it), or a checkpoint of every
//!    shard. So writes, reads, faults, checkpoints and the cut land
//!    between a compute and its install, and between a sync's two halves.
//!    A seed draws its commit mode: under [`CommitMode::Group`] every
//!    batch, and some single requests ([`ShardedLsmTree::apply`]), are
//!    acknowledged by their own rendezvous. A request is otherwise
//!    acknowledged once a sync that began after it, or a checkpoint,
//!    returned `Ok`. The first fault — or a seeded soft cut — ends the
//!    workload.
//! 3. The host dies at the same instant: the tree is leaked (no
//!    destructor, no final WAL flush), every device loses what it did not
//!    sync, and each WAL is cut to its last-fsynced length plus a random
//!    portion of the flushed-but-unsynced tail — what a page cache can
//!    leave behind.
//! 4. Recover as the engine does ([`ShardedLsmTree::recover_with_backend`]):
//!    each shard's manifest over the device's durable image, then its WAL
//!    tail. Judge every shard with its [`HistoryChecker`]: the recovered
//!    state must equal the state after some prefix of the shard's requests
//!    that covers every acknowledged one. Nothing durable may be lost,
//!    nothing may be resurrected, and no state that never existed may
//!    appear.
//! 5. Apply a continuation workload to the recovered tree, flush,
//!    checkpoint, and run the deep structural verifier on every shard.
//!
//! [`TortureConfig::for_seed`] is the single-writer shape (inline merges,
//! one shard), [`TortureConfig::concurrent`] the 3-writer × 2-shard shape
//! over a [`SimExecutor`]. The harness is pure `f(config)`: the same seed
//! produces the same workload, the same interleaving, the same fault
//! sequence and the same verdict, which is what lets a failing seed be
//! replayed under a debugger.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use observe::{FlightRecorderSink, Json, SinkHandle, TickClock};
use sim_ssd::{BlockDevice, FaultDevice, FaultPlan, MemDevice, SplitMix64};

use crate::config::{CommitMode, LsmConfig};
use crate::history::{AckStatus, HistoryChecker, HistoryRecord};
use crate::policy::ledger::DecisionLedger;
use crate::policy::PolicySpec;
use crate::postmortem::PostMortem;
use crate::record::{Key, Request};
use crate::scheduler::SchedulerBackend;
use crate::sharded::ShardedLsmTree;
use crate::sim::SimExecutor;
use crate::store::RetryPolicy;
use crate::tree::{LsmTree, TreeOptions};
use crate::wal::WalFaultPlan;

/// Which device each shard's [`FaultDevice`] wraps. The durable image
/// recovered from is the inner device either way; the file backend runs
/// the identical cycle through real file I/O (and its batched read/write
/// paths) in the cycle's scratch directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TortureBackend {
    /// In-memory simulated SSD (default: fastest, wear-instrumented).
    #[default]
    Mem,
    /// File-backed device per shard.
    File,
}

/// Knobs of one crash-torture cycle. [`TortureConfig::for_seed`] and
/// [`TortureConfig::concurrent`] give the two standard shapes.
#[derive(Debug, Clone)]
pub struct TortureConfig {
    /// Seed for everything: writer workloads, interleaving choices, fault
    /// plans, the crash point.
    pub seed: u64,
    /// Logical writers, each with its own seeded request stream.
    pub writers: usize,
    /// Shards of the tree under test.
    pub shards: usize,
    /// `Some(bound)`: maintenance runs on a [`SimExecutor`] with this
    /// sealed-memtable bound, one seeded half-step at a time, over a
    /// one-block L0 (so flushes, merges and growth all happen in halves
    /// before the cut). `None`: every shard merges inline.
    pub background: Option<usize>,
    /// Device backend under each shard's fault decorator.
    pub backend: TortureBackend,
    /// Probability that a seed runs [`CommitMode::Group`] (drawn from a
    /// stream of its own), [`CommitMode::Buffered`] otherwise.
    pub group_commit: f64,
    /// Writer requests to issue before the power cut is forced.
    pub ops: u64,
    /// Keys are drawn uniformly from `0..key_space`.
    pub key_space: u64,
    /// One tick in this many is a half of a group sync on a seeded shard;
    /// also the largest batch a writer submits.
    pub sync_every: u64,
    /// One tick in this many is a checkpoint of every shard.
    pub checkpoint_every: u64,
    /// Per-read and per-write transient device error probability (retries
    /// absorb these).
    pub device_error_rate: f64,
    /// Per-fsync WAL failure probability (these poison — see
    /// [`WalFaultPlan`]).
    pub wal_sync_error_rate: f64,
    /// Requests applied to the recovered tree before the final deep check.
    pub continue_ops: u64,
    /// Where to write a post-mortem bundle when a cycle fails (or on
    /// success too, with [`TortureConfig::always_dump`]). `None` (the
    /// default) disables bundling entirely.
    pub bundle_dir: Option<PathBuf>,
    /// Dump a bundle even when the cycle passes — used by the determinism
    /// suites and by `lsm_crash --always-dump` for smoke checks.
    pub always_dump: bool,
    /// Negative-test hook: mark a write acknowledged when it is applied,
    /// *before* any fsync covers it — the classic ack-before-fsync bug.
    /// The history checker must reject cycles where the crash eats an
    /// "acked" tail.
    pub inject_ack_bug: bool,
}

impl TortureConfig {
    /// The single-writer shape for `seed`: one shard merging inline, 400
    /// requests over 512 keys, a sync half-step one tick in 9 (and batches
    /// of up to 9), a checkpoint one in 140, 1% transient device errors,
    /// Buffered or Group commit.
    pub fn for_seed(seed: u64) -> Self {
        TortureConfig {
            seed,
            writers: 1,
            shards: 1,
            background: None,
            backend: TortureBackend::Mem,
            group_commit: 0.5,
            ops: 400,
            key_space: 512,
            sync_every: 9,
            checkpoint_every: 140,
            device_error_rate: 0.01,
            wal_sync_error_rate: 0.0,
            continue_ops: 60,
            bundle_dir: None,
            always_dump: false,
            inject_ack_bug: false,
        }
    }

    /// The concurrent shape for `seed`: 3 writers over 2 shards on a
    /// [`SimExecutor`] (sealed-memtable bound 2), 120 requests over 128
    /// keys, group commit, a sync half-step one tick in 7 (and batches of up
    /// to 7), a checkpoint one in 60, 0.5% transient device errors, a 2%
    /// WAL-fsync fault rate.
    pub fn concurrent(seed: u64) -> Self {
        TortureConfig {
            writers: 3,
            shards: 2,
            background: Some(2),
            group_commit: 1.0,
            ops: 120,
            key_space: 128,
            sync_every: 7,
            checkpoint_every: 60,
            device_error_rate: 0.005,
            wal_sync_error_rate: 0.02,
            continue_ops: 40,
            ..Self::for_seed(seed)
        }
    }

    /// The `lsm_crash` command that replays this cycle (given the shape's
    /// other settings).
    pub fn repro(&self) -> String {
        let mut cmd = format!(
            "cargo run --release -p lsm-bench --bin lsm_crash -- --seeds=1 --seed-base={} \
             --writers={} --shards={} --ops={}",
            self.seed, self.writers, self.shards, self.ops
        );
        if self.background.is_some() {
            cmd += " --scheduler=background";
        }
        if self.backend == TortureBackend::File {
            cmd += " --backend=file";
        }
        cmd
    }
}

/// The bundle file a failing (or `always_dump`) cycle for `seed` writes
/// under `dir` — named after the seed so "FAIL (seed N)" output and the
/// file on disk can be matched by eye, and deliberately free of process
/// ids so same-seed bundles are byte-comparable.
pub fn bundle_path(dir: &Path, seed: u64) -> PathBuf {
    dir.join(format!("lsm_crash_seed_{seed}.postmortem.json"))
}

/// Why a torture cycle failed: the violated invariant (or failed step),
/// the seed to replay it, and the post-mortem bundle if one was written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TortureFailure {
    /// The seed that produced the failing cycle.
    pub seed: u64,
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Path of the post-mortem bundle, when `bundle_dir` was set and the
    /// dump succeeded.
    pub bundle: Option<PathBuf>,
}

impl std::fmt::Display for TortureFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[seed {}] {}", self.seed, self.message)?;
        if let Some(path) = &self.bundle {
            write!(f, " (post-mortem: {})", path.display())?;
        }
        Ok(())
    }
}

impl std::error::Error for TortureFailure {}

/// What one crash cycle did — for aggregation and debugging. `PartialEq`
/// so the determinism suites can assert two same-seed runs agree
/// field-for-field.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TortureReport {
    /// The seed that produced this cycle.
    pub seed: u64,
    /// Writer requests issued before the crash (including a failed one).
    pub issued: u64,
    /// Of the writer ticks, the ones that submitted a batch through
    /// [`ShardedLsmTree::write_batch`].
    pub batches: u64,
    /// Of those, the ones acknowledged by their own group commit.
    pub batches_acked: u64,
    /// Requests acknowledged durable before the crash.
    pub acked: u64,
    /// Whether a fault or the soft cut ended the workload (vs the forced
    /// cut after the last request).
    pub cut_mid_workload: bool,
    /// The history prefixes the recovered shards matched, summed: at least
    /// `acked`, at most `issued`.
    pub matched_prefix: u64,
    /// Live keys recovered across all shards.
    pub recovered_keys: u64,
    /// Requests replayed from the WAL tails during recovery.
    pub replayed: u64,
    /// Seeded point reads checked against the model of applied writes.
    pub reads: u64,
    /// Maintenance half-steps the simulated executor ran.
    pub sim_steps: u64,
    /// Writes, reads, syncs and checkpoints that ran while some shard had
    /// a step computed but not yet installed.
    pub ops_between_halves: u64,
    /// Seeded group syncs that ran to their end.
    pub group_syncs: u64,
    /// Writes that ran while their shard had a group sync begun but not
    /// yet finished: logged after the length was noted, so not covered.
    pub writes_between_sync_halves: u64,
    /// Checkpoints that completed.
    pub checkpoints: u64,
    /// Of those, the ones taken while a step was between its halves.
    pub checkpoints_between_halves: u64,
    /// Of those, the ones taken while a group sync was between its halves.
    pub checkpoints_between_sync_halves: u64,
}

fn tiny_cfg() -> LsmConfig {
    LsmConfig {
        block_size: 256,
        payload_size: 4,
        k0_blocks: 4,
        gamma: 4,
        cache_blocks: 16,
        merge_rate: 0.25,
        ..LsmConfig::default()
    }
}

/// A scratch path no other cycle uses: `<tmp>/<stem>-<pid>-<seed>-<n>`,
/// `n` a process-wide call counter. Pid and seed alone are not enough —
/// `cargo test` runs cycles with the same seed on parallel threads of one
/// process, and each cycle deletes its scratch files when it ends. The
/// path never reaches a report or bundle, so those stay byte-identical
/// per seed.
fn scratch_path(stem: &str, seed: u64) -> PathBuf {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let n = CALLS.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("{stem}-{}-{seed}-{n}", std::process::id()))
}

/// One logged request: key plus `Some(payload)` for a put, `None` for a
/// delete — what a [`HistoryRecord`] holds.
type LoggedOp = (u64, Option<Vec<u8>>);

fn draw_op(rng: &mut SplitMix64, key_space: u64) -> LoggedOp {
    let key = rng.gen_range(key_space);
    if rng.chance(0.7) {
        let fill = (rng.gen_range(251)) as u8;
        (key, Some(vec![fill; 4]))
    } else {
        (key, None)
    }
}

fn to_request(op: &LoggedOp) -> Request {
    match &op.1 {
        Some(payload) => Request::Put(op.0, Bytes::from(payload.clone())),
        None => Request::Delete(op.0),
    }
}

/// The sections a bundle carries beside the black box: the scheduler's
/// (job queue, backlogs, open rendezvous) and shard 0's tree.
type Sections = Vec<(&'static str, Json)>;

/// What a cycle carries and bundles: a deterministic handle ([`TickClock`],
/// no wall-clock time) feeding a [`FlightRecorderSink`], a
/// [`DecisionLedger`] on every tree, and the scratch directory the cycle
/// removes however it ends. Sinks cannot perturb a cycle (the
/// observer-effect contract), so same-seed bundles are byte-identical.
struct BlackBox {
    seed: u64,
    bundle_dir: Option<PathBuf>,
    /// The command that replays the cycle.
    repro: String,
    recorder: Arc<FlightRecorderSink>,
    ledger: Arc<DecisionLedger>,
    sink: SinkHandle,
    /// Shard 0's device, for its I/O counters, and the same device for its
    /// wear when it is in memory.
    device: Option<Arc<dyn BlockDevice>>,
    mem: Option<Arc<MemDevice>>,
    scratch: PathBuf,
}

impl BlackBox {
    /// A black box for the cycle of `cfg`, whose scratch directory is
    /// emptied first: a leftover of an earlier run is no part of this one.
    fn new(cfg: &TortureConfig, scratch: PathBuf) -> Self {
        let recorder = Arc::new(FlightRecorderSink::new(512));
        let sink =
            SinkHandle::with_clock(Arc::new(TickClock::new())).and(Arc::clone(&recorder) as _);
        let bb = BlackBox {
            seed: cfg.seed,
            bundle_dir: cfg.bundle_dir.clone(),
            repro: cfg.repro(),
            recorder,
            ledger: Arc::new(DecisionLedger::new(256)),
            sink,
            device: None,
            mem: None,
            scratch,
        };
        bb.cleanup();
        bb
    }

    /// The options of every tree a cycle runs: the black box attached.
    fn opts(&self, commit: CommitMode) -> TreeOptions {
        TreeOptions::builder()
            .policy(PolicySpec::ChooseBest)
            .retry(RetryPolicy { max_attempts: 4, base_backoff_us: 0 })
            .group_commit(commit)
            .sink(self.sink.clone())
            .ledger(Arc::clone(&self.ledger))
            .build()
    }

    /// Remove the scratch directory.
    fn cleanup(&self) {
        std::fs::remove_dir_all(&self.scratch).ok();
    }

    /// Write a bundle if a directory is configured; returns its path.
    fn dump(&self, reason: &str, error: Option<&str>, sections: Sections) -> Option<PathBuf> {
        let path = bundle_path(self.bundle_dir.as_deref()?, self.seed);
        let mut pm = PostMortem::new(reason)
            .seed(self.seed)
            .repro(&self.repro)
            .flight(&self.recorder)
            .ledger(&self.ledger);
        if let Some(device) = &self.device {
            pm = pm.device_io(device.io_snapshot());
        }
        if let Some(mem) = &self.mem {
            pm = pm.wear(&mem.wear_snapshot(), 32);
        }
        if let Some(msg) = error {
            pm = pm.error(msg);
        }
        for (key, json) in sections {
            pm = pm.section(key, json);
        }
        pm.write_to(&path).ok()?;
        Some(path)
    }

    /// End the cycle at a failed step `what`: bundle, clean up, say why.
    fn fail(&self, what: &str, message: String, sections: Sections) -> TortureFailure {
        let bundle = self.dump(&format!("torture failure: {what}"), Some(&message), sections);
        self.cleanup();
        TortureFailure { seed: self.seed, message, bundle }
    }

    /// End a cycle that passed: a bundle if asked for, and clean up.
    fn pass(&self, always_dump: bool, sections: Sections) {
        if always_dump {
            self.dump("explicit dump", None, sections);
        }
        self.cleanup();
    }
}

/// The host dies: the log at `path` keeps its first `synced` bytes and a
/// seeded share of the flushed-but-unsynced tail after them — what a page
/// cache can leave behind.
fn cut_wal_tail(path: &Path, synced: u64, rng: &mut SplitMix64) -> std::io::Result<()> {
    let on_disk = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let tail = on_disk.saturating_sub(synced);
    let keep = synced + if tail > 0 { rng.gen_range(tail + 1) } else { 0 };
    if keep < on_disk {
        std::fs::OpenOptions::new().write(true).open(path)?.set_len(keep)?;
    }
    Ok(())
}

/// The durability judgement: what recovery kept of a shard must be a
/// prefix of its `history` that covers every acknowledged request.
/// Returns that prefix and the live keys recovered.
fn judge(history: &HistoryChecker, tree: &LsmTree) -> Result<(u64, u64), String> {
    let contents: HashMap<Key, Vec<u8>> = tree
        .scan(0, Key::MAX)
        .map(|r| r.map(|(k, v)| (k, v.to_vec())))
        .collect::<crate::error::Result<_>>()
        .map_err(|e| format!("scan of the recovered tree failed: {e}"))?;
    let keys = contents.len() as u64;
    match history.check(&contents) {
        Ok(prefix) => Ok((prefix as u64, keys)),
        Err(v) => Err(format!("durability history violation: {v} ({keys} recovered keys)")),
    }
}

/// Run one seeded crash cycle (module docs list its phases); `Err` carries
/// the violated invariant, the seed for replay, and (when
/// [`TortureConfig::bundle_dir`] is set) the path of the post-mortem
/// bundle the failure wrote.
///
/// Every cycle runs with a black box attached: a deterministic
/// [`SinkHandle`] ([`TickClock`]) feeding a [`FlightRecorderSink`], plus a
/// [`DecisionLedger`] on every tree. On failure — or on success with
/// [`TortureConfig::always_dump`] — their contents, the scheduler section
/// and shard 0's tree as it stood at the crash are serialized into a
/// bundle at [`bundle_path`]. Two runs of the same seed produce
/// byte-identical bundles.
pub fn run_crash_cycle(cfg: &TortureConfig) -> Result<TortureReport, TortureFailure> {
    assert!(cfg.writers >= 1 && cfg.shards >= 1, "need at least one writer and shard");
    let dir = scratch_path("lsm-torture", cfg.seed);
    let mut bb = BlackBox::new(cfg, dir.clone());
    std::fs::create_dir_all(&dir)
        .map_err(|e| bb.fail("scratch", format!("scratch dir create failed: {e}"), vec![]))?;
    let mut rng = SplitMix64::new(cfg.seed ^ 0xC04C_0441_57EE_DEAD);
    // The commit mode: a stream of its own, so that the draw moves nothing
    // else the seed decides.
    let group = SplitMix64::new(cfg.seed ^ 0x6C0C_0FFE).chance(cfg.group_commit);
    let commit = if group { CommitMode::Group } else { CommitMode::Buffered };

    // One fault decorator per shard, seeded per shard; the black box
    // watches shard 0's device.
    let mut faults: Vec<Arc<FaultDevice>> = Vec::with_capacity(cfg.shards);
    for i in 0..cfg.shards {
        let inner: Arc<dyn BlockDevice> = match cfg.backend {
            TortureBackend::Mem => {
                let mem = Arc::new(MemDevice::with_block_size(1 << 14, 256));
                bb.mem = bb.mem.take().or(Some(Arc::clone(&mem)));
                mem
            }
            TortureBackend::File => {
                let path = dir.join(format!("shard-{i}.dev"));
                let dev = sim_ssd::FileDevice::create_with_block_size(&path, 1 << 14, 256)
                    .map_err(|e| bb.fail("device", format!("device create failed: {e}"), vec![]))?;
                Arc::new(dev)
            }
        };
        bb.device = bb.device.take().or(Some(Arc::clone(&inner)));
        let seed = cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        faults.push(Arc::new(FaultDevice::new(inner, seed)));
    }
    let sim =
        cfg.background.map(|bound| Arc::new(SimExecutor::new(bound, cfg.seed, bb.sink.clone())));
    let tree_cfg = LsmConfig { k0_blocks: if sim.is_some() { 1 } else { 4 }, ..tiny_cfg() };
    let tree = ShardedLsmTree::with_backend(
        tree_cfg.clone(),
        bb.opts(commit),
        faults.iter().map(|f| Arc::clone(f) as Arc<dyn BlockDevice>).collect(),
        Some(&dir),
        sim.clone().map(|sim| sim as Arc<dyn SchedulerBackend>),
    )
    .map_err(|e| bb.fail("create", format!("create failed: {e}"), vec![]))?;

    // Arm faults only now, so creation itself cannot be cut: an index that
    // never existed has no durability contract to check. One seeded shard
    // gets a power cut at a uniformly random device op after this one, so
    // it can interrupt a merge, a flush or a checkpoint between any two
    // block writes. The cache absorbs most reads, so N requests issue
    // roughly N/3 device ops; sizing the window to that keeps most cuts
    // inside the workload. Every WAL gets the fsync fault rate, and a
    // seeded soft cut may end the workload between two ticks — the host
    // dying with the devices intact.
    let cut_shard = rng.gen_range(cfg.shards as u64) as usize;
    let cut_at = faults[cut_shard].ops_issued() + 1 + rng.gen_range(cfg.ops / 3 + 1);
    for (i, fault) in faults.iter().enumerate() {
        let plan = FaultPlan::none()
            .read_error_rate(cfg.device_error_rate)
            .write_error_rate(cfg.device_error_rate);
        fault.set_plan(if i == cut_shard { plan.power_cut_at(cut_at) } else { plan });
        let plan = WalFaultPlan::none().sync_error_rate(cfg.wal_sync_error_rate);
        tree.set_wal_fault_plan(i, plan, cfg.seed ^ (i as u64).rotate_left(17));
    }
    let soft_cut_tick: Option<u64> = rng.chance(0.5).then(|| 1 + rng.gen_range(cfg.ops * 2));

    // ------------------------------------------------------------------
    // Phase 1: the interleaved workload, one seeded choice per tick. Every
    // request enters its shard's history when it returns: WAL-first
    // ordering means one whose apply fails may still have reached the log,
    // so it stays there as `Failed`.
    // ------------------------------------------------------------------
    let mut writer_rngs: Vec<SplitMix64> = (0..cfg.writers)
        .map(|w| SplitMix64::new(cfg.seed ^ (w as u64 + 1).wrapping_mul(0xB0B0_0000_CAFE_F00D)))
        .collect();
    let mut histories: Vec<HistoryChecker> =
        (0..cfg.shards).map(|_| HistoryChecker::new()).collect();
    // Per shard: requests awaiting a sync or a checkpoint, and — while a
    // group sync is between its halves — how many of them it covers.
    let mut pending: Vec<Vec<usize>> = vec![Vec::new(); cfg.shards];
    let mut sync_begun: Vec<Option<usize>> = vec![None; cfg.shards];
    // What a read must return: the last write applied per key. One thread
    // makes every call, so "applied" is simply "returned `Ok`".
    let mut model: HashMap<u64, Option<Vec<u8>>> = HashMap::new();
    let mut r = TortureReport { seed: cfg.seed, ..TortureReport::default() };
    let half_steps = if sim.is_some() { 2 } else { 0 };
    let mut tick = 0u64;
    while r.issued < cfg.ops {
        tick += 1;
        if soft_cut_tick == Some(tick) {
            r.cut_mid_workload = true;
            break;
        }
        let mid_step = sim.as_ref().is_some_and(|sim| sim.awaiting_install() > 0);
        let mid_sync = sync_begun.iter().any(Option::is_some);
        let (checkpoint, sync) =
            (rng.gen_range(cfg.checkpoint_every) == 0, rng.gen_range(cfg.sync_every) == 0);
        let choice = rng.gen_range(cfg.writers as u64 + 1 + half_steps) as usize;
        let half_step = !checkpoint && !sync && choice > cfg.writers;
        r.ops_between_halves += u64::from(mid_step && !half_step);
        let ok = if checkpoint {
            // Every shard's manifest now holds what it applied.
            let done = tree.checkpoint().is_ok();
            r.checkpoints += u64::from(done);
            r.checkpoints_between_halves += u64::from(done && mid_step);
            r.checkpoints_between_sync_halves += u64::from(done && mid_sync);
            for (s, history) in histories.iter_mut().enumerate().filter(|_| done) {
                pending[s].drain(..).for_each(|rec| history.set_status(rec, AckStatus::Acked));
                sync_begun[s] = sync_begun[s].map(|_| 0);
            }
            done
        } else if sync {
            // One half of a group sync on a seeded shard: the first notes
            // the log's length, the second makes what was appended up to
            // there durable — not what was appended in between — or fails
            // and poisons the shard's WAL and rendezvous.
            let s = rng.gen_range(cfg.shards as u64) as usize;
            match tree.group_sync_step(s) {
                Ok(None) => {
                    sync_begun[s] = Some(pending[s].len());
                    true
                }
                Ok(Some(_)) => {
                    r.group_syncs += 1;
                    let covered = sync_begun[s].take().unwrap_or(pending[s].len());
                    let history = &mut histories[s];
                    pending[s]
                        .drain(..covered)
                        .for_each(|rec| history.set_status(rec, AckStatus::Acked));
                    true
                }
                Err(_) => false,
            }
        } else if choice < cfg.writers {
            // One request of a writer, or a batch of up to `sync_every` of
            // them through `write_batch` (each shard's run validated whole,
            // logged in chunks, committed by one rendezvous per shard).
            // Under group commit a batch, and some single requests, return
            // once their own rendezvous covered them; the rest are acked by
            // a later sync or checkpoint — or, with the injected bug, right
            // away.
            let batch = rng.chance(0.3).then(|| 1 + rng.gen_range(cfg.sync_every));
            let n = batch.unwrap_or(1).min(cfg.ops - r.issued);
            let ops: Vec<LoggedOp> =
                (0..n).map(|_| draw_op(&mut writer_rngs[choice], cfg.key_space)).collect();
            r.issued += n;
            for (key, _) in &ops {
                r.writes_between_sync_halves +=
                    u64::from(sync_begun[tree.shard_of(*key)].is_some());
            }
            let res = match batch {
                Some(_) => {
                    r.batches += 1;
                    tree.write_batch(ops.iter().map(to_request).collect()).map(|()| group)
                }
                None if group && rng.chance(0.25) => tree.apply(to_request(&ops[0])).map(|()| true),
                None => {
                    let s = tree.shard_of(ops[0].0);
                    tree.apply_unacked(s, to_request(&ops[0])).map(|_| false)
                }
            };
            // A failed call may have applied — and logged — a prefix of
            // each shard's share: every request of it stays `Failed`.
            let status = match res {
                Ok(acked) if acked || cfg.inject_ack_bug => AckStatus::Acked,
                Ok(_) => AckStatus::Pending,
                Err(_) => AckStatus::Failed,
            };
            r.batches_acked += u64::from(batch.is_some() && status == AckStatus::Acked);
            for (key, value) in ops {
                let s = tree.shard_of(key);
                if status != AckStatus::Failed {
                    model.insert(key, value.clone());
                }
                let rec = histories[s].append(HistoryRecord { writer: choice, key, value, status });
                if status == AckStatus::Pending {
                    pending[s].push(rec);
                }
            }
            status != AckStatus::Failed
        } else if choice == cfg.writers {
            // One read, against the model.
            let key = rng.gen_range(cfg.key_space);
            r.reads += 1;
            match tree.get(key) {
                Ok(got) => {
                    let want = model.get(&key).cloned().flatten();
                    if got.as_deref() != want.as_deref() {
                        let msg = format!(
                            "read of key {key} returned {got:?}, the model of applied writes has \
                             {want:?} (after {} writes, {tick} ticks)",
                            r.issued
                        );
                        return Err(bb.fail("read", msg, sections(cfg, &tree)));
                    }
                    true
                }
                Err(_) => false,
            }
        } else {
            // One half of a maintenance step.
            sim.as_ref().is_some_and(|sim| sim.step().is_ok())
        };
        if !ok {
            r.cut_mid_workload = true;
            break;
        }
    }
    r.sim_steps = sim.as_ref().map_or(0, |sim| sim.steps_taken());
    r.acked =
        histories.iter().flat_map(|h| h.records()).filter(|h| h.status == AckStatus::Acked).count()
            as u64;

    // ------------------------------------------------------------------
    // Phase 2: the host dies. Take the bundle's view of the scheduler and
    // of shard 0 first, then leak the tree, power every device off (what
    // it did not sync is gone) and cut each WAL's unsynced tail.
    // ------------------------------------------------------------------
    let at_crash = sections(cfg, &tree);
    let at_crash = || at_crash.clone();
    let wal_synced = tree.wal_synced_lens();
    std::mem::forget(tree);
    faults.iter().for_each(|fault| fault.power_cut());
    for (i, &synced) in wal_synced.iter().enumerate() {
        cut_wal_tail(&ShardedLsmTree::wal_path(&dir, i), synced, &mut rng).map_err(|e| {
            bb.fail("wal truncate", format!("wal truncate failed for shard {i}: {e}"), at_crash())
        })?;
    }

    // ------------------------------------------------------------------
    // Phase 3: recover as the engine does — each shard's manifest over the
    // device's durable image, then its WAL tail — and judge every shard
    // against its history.
    // ------------------------------------------------------------------
    let recovered = ShardedLsmTree::recover_with_backend(
        tree_cfg,
        bb.opts(commit),
        faults.iter().map(|f| f.inner()).collect(),
        &dir,
        None,
    )
    .map_err(|e| bb.fail("recovery", format!("recovery failed: {e}"), at_crash()))?;
    let stats = recovered.stats();
    r.replayed = stats.puts + stats.deletes;
    for (i, history) in histories.iter().enumerate() {
        let (prefix, keys) =
            recovered.with_shard_read(i, |t| judge(history, t)).map_err(|msg| {
                let msg = format!(
                    "shard {i}: {msg}; {} acked of {} issued, {} replayed",
                    r.acked, r.issued, r.replayed
                );
                bb.fail("durability history", msg, at_crash())
            })?;
        r.matched_prefix += prefix;
        r.recovered_keys += keys;
    }

    // ------------------------------------------------------------------
    // Phase 4: life goes on — the recovered tree takes new writes, flushes
    // and checkpoints, then passes the deep structural check on every
    // shard.
    // ------------------------------------------------------------------
    let life = (0..cfg.continue_ops)
        .try_for_each(|i| {
            let op = draw_op(&mut rng, cfg.key_space);
            recovered.apply(to_request(&op)).map_err(|e| format!("continuation op {i} failed: {e}"))
        })
        .and_then(|()| recovered.flush().map_err(|e| format!("post-recovery flush failed: {e}")))
        .and_then(|()| {
            recovered.checkpoint().map_err(|e| format!("post-recovery checkpoint failed: {e}"))
        })
        .and_then(|()| {
            recovered
                .deep_verify(true)
                .map_err(|e| format!("deep check after recovery failed: {e}"))
        });
    if let Err(msg) = life {
        return Err(bb.fail("after recovery", msg, at_crash()));
    }
    drop(recovered);
    bb.pass(cfg.always_dump, at_crash());
    Ok(r)
}

/// A bundle's sections beside the black box (none without a bundle
/// directory): the scheduler's, and shard 0's tree.
fn sections(cfg: &TortureConfig, tree: &ShardedLsmTree) -> Sections {
    if cfg.bundle_dir.is_none() {
        return Vec::new();
    }
    let shard0 = tree.with_shard_read(0, PostMortem::tree_json);
    vec![("scheduler", tree.scheduler_section_json()), ("tree", shard0)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cycle_is_deterministic() {
        let a = run_crash_cycle(&TortureConfig::for_seed(42)).unwrap();
        let b = run_crash_cycle(&TortureConfig::for_seed(42)).unwrap();
        assert_eq!(a, b, "same seed must reproduce the same cycle");
    }

    #[test]
    fn a_few_cycles_pass() {
        for seed in 0..8u64 {
            let report = run_crash_cycle(&TortureConfig::for_seed(seed))
                .unwrap_or_else(|e| panic!("cycle failed: {e}"));
            assert!(report.matched_prefix >= report.acked);
            assert!(report.matched_prefix <= report.issued);
        }
    }

    #[test]
    fn file_backend_cycles_pass() {
        // Seeds not shared with the mem-backend tests in this module, so
        // parallel test threads never collide on the per-seed temp files.
        for seed in 3000..3006u64 {
            let mut cfg = TortureConfig::for_seed(seed);
            cfg.backend = TortureBackend::File;
            let report =
                run_crash_cycle(&cfg).unwrap_or_else(|e| panic!("file-backend cycle failed: {e}"));
            assert!(report.matched_prefix >= report.acked);
            assert!(report.matched_prefix <= report.issued);
            // The concurrent shape over files: shards restored from their
            // manifests over the files' durable images.
            let mut cfg = TortureConfig::concurrent(seed);
            cfg.backend = TortureBackend::File;
            run_crash_cycle(&cfg).unwrap_or_else(|e| panic!("concurrent file cycle failed: {e}"));
        }
    }

    #[test]
    fn file_backend_is_deterministic() {
        let mut cfg = TortureConfig::for_seed(3100);
        cfg.backend = TortureBackend::File;
        let a = run_crash_cycle(&cfg).unwrap_or_else(|e| panic!("first run failed: {e}"));
        let b = run_crash_cycle(&cfg).unwrap_or_else(|e| panic!("second run failed: {e}"));
        assert_eq!(a, b, "same seed over a file device must reproduce the same cycle");
    }

    #[test]
    fn same_seed_bundles_are_byte_identical() {
        let base = scratch_path("lsm-bundle-det", 9001);
        let dir_a = base.join("a");
        let dir_b = base.join("b");
        let mut cfg = TortureConfig::for_seed(9001);
        cfg.always_dump = true;
        cfg.bundle_dir = Some(dir_a.clone());
        run_crash_cycle(&cfg).unwrap_or_else(|e| panic!("first run failed: {e}"));
        cfg.bundle_dir = Some(dir_b.clone());
        run_crash_cycle(&cfg).unwrap_or_else(|e| panic!("second run failed: {e}"));

        let a = std::fs::read(bundle_path(&dir_a, 9001)).expect("first bundle written");
        let b = std::fs::read(bundle_path(&dir_b, 9001)).expect("second bundle written");
        assert_eq!(a, b, "same-seed bundles must be byte-identical");

        let text = String::from_utf8(a).expect("bundle is UTF-8");
        let doc = Json::parse(&text).expect("bundle parses");
        let problems = crate::postmortem::validate_bundle(&doc);
        assert!(problems.is_empty(), "invalid bundle: {problems:?}");
        // The bundle names its seed and an exact repro command, and carries
        // the black box: flight events, ledger, wear, and the tree section.
        assert_eq!(doc.get("seed").as_u64(), Some(9001));
        let repro = doc.get("repro").as_str().expect("missing repro");
        assert!(repro.contains("--seed-base=9001"), "repro names the seed: {repro}");
        for key in ["flight", "ledger", "wear", "device_io", "tree"] {
            assert!(doc.get(key) != &Json::Null, "bundle missing {key} section");
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn failure_display_names_seed_and_bundle() {
        let plain = TortureFailure { seed: 7, message: "boom".into(), bundle: None };
        assert_eq!(plain.to_string(), "[seed 7] boom");
        let with_bundle = TortureFailure {
            seed: 7,
            message: "boom".into(),
            bundle: Some(PathBuf::from("/tmp/x/lsm_crash_seed_7.postmortem.json")),
        };
        assert_eq!(
            with_bundle.to_string(),
            "[seed 7] boom (post-mortem: /tmp/x/lsm_crash_seed_7.postmortem.json)"
        );
        assert_eq!(
            bundle_path(Path::new("/tmp/x"), 7),
            PathBuf::from("/tmp/x/lsm_crash_seed_7.postmortem.json")
        );
    }
}
