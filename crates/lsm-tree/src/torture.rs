//! Seeded crash-torture cycles: randomized workload, power cut at a random
//! device-op count, recovery, and a durability-invariant check.
//!
//! One [`run_crash_cycle`] does, deterministically per seed:
//!
//! 1. Build a [`crate::DurableLsmTree`] over a [`sim_ssd::FaultDevice`]
//!    wrapping an in-memory device, with low transient read/write error
//!    rates (absorbed by the store's retries) and a scheduled power cut at
//!    a random device-op count — so the cut lands anywhere, including the
//!    middle of a merge cascade or a checkpoint.
//! 2. Run a random put/delete workload, checkpointing occasionally, until
//!    the power cut surfaces (or the workload ends, in which case the cut
//!    is forced). A seed draws its commit mode: under
//!    [`CommitMode::Buffered`] requests go one by one and the WAL is
//!    fsynced every few; under [`CommitMode::Group`] they go in batches of
//!    that many, each acknowledged by its own fsync — the same fsyncs.
//! 3. Simulate the host dying at the same instant: the tree object is
//!    leaked (no destructor, no final WAL flush) and the WAL file is
//!    truncated to its last-fsynced length plus a random portion of the
//!    flushed-but-unsynced tail — what a real page cache can leave behind.
//! 4. Recover from the durable image (the fault decorator's inner device —
//!    exactly the frames that were synced) and check the **durability
//!    invariant** with the [`HistoryChecker`] the concurrent cycle uses
//!    too: the recovered state must equal the state after some prefix of
//!    the issued requests that covers every acknowledged one (by a sync, a
//!    checkpoint or its own group commit). Nothing durable may be lost,
//!    nothing may be resurrected, and no "state" that never existed may
//!    appear.
//! 5. Apply a continuation workload to the recovered tree, then run the
//!    deep structural verifier ([`crate::verify::check_tree`]).
//!
//! The harness is pure `f(seed)`: the same seed produces the same workload,
//! the same fault sequence, and the same verdict, which is what lets a
//! failing seed from the torture suite be replayed under a debugger.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use observe::{FlightRecorderSink, Json, SinkHandle, TickClock};
use sim_ssd::{BlockDevice, FaultDevice, FaultPlan, MemDevice, SplitMix64};

use crate::api::{WriteApi, WriteBatch};
use crate::config::{CommitMode, LsmConfig};
use crate::history::{AckStatus, HistoryChecker, HistoryRecord};
use crate::policy::ledger::DecisionLedger;
use crate::policy::PolicySpec;
use crate::postmortem::PostMortem;
use crate::record::{Key, Request};
use crate::store::RetryPolicy;
use crate::tree::{LsmTree, TreeOptions};
use crate::wal::DurableLsmTree;

/// Which device the crash cycle's [`FaultDevice`] wraps. The durable
/// image recovered from is the inner device either way; the file backend
/// runs the identical cycle through real file I/O (and its batched
/// read/write paths) in a temp file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TortureBackend {
    /// In-memory simulated SSD (default: fastest, wear-instrumented).
    #[default]
    Mem,
    /// File-backed device in a per-seed temp file.
    File,
}

/// Knobs of one crash-torture cycle. [`TortureConfig::for_seed`] gives the
/// standard smoke configuration.
#[derive(Debug, Clone)]
pub struct TortureConfig {
    /// Seed for the workload and the fault plan.
    pub seed: u64,
    /// Device backend under the fault decorator.
    pub backend: TortureBackend,
    /// Maximum requests to issue before the power cut is forced.
    pub ops: u64,
    /// Keys are drawn uniformly from `0..key_space`.
    pub key_space: u64,
    /// Fsync the WAL every this many requests (under group commit: the
    /// size of a batch).
    pub sync_every: u64,
    /// Checkpoint (manifest + WAL truncation) every this many requests.
    pub checkpoint_every: u64,
    /// Per-read transient error probability (retries absorb these).
    pub read_error_rate: f64,
    /// Per-write transient error probability (retries absorb these).
    pub write_error_rate: f64,
    /// Requests applied to the recovered tree before the final deep check.
    pub continue_ops: u64,
    /// Where to write a post-mortem bundle when a cycle fails (or on
    /// success too, with [`TortureConfig::always_dump`]). `None` (the
    /// default) disables bundling entirely.
    pub bundle_dir: Option<PathBuf>,
    /// Dump a bundle even when the cycle passes — used by the determinism
    /// suite and by `lsm_crash --always-dump` for smoke checks.
    pub always_dump: bool,
}

impl TortureConfig {
    /// The standard cycle for `seed`: 400 requests max, 512-key space,
    /// fsync every 9, checkpoint every 140, 1% transient error rates.
    pub fn for_seed(seed: u64) -> Self {
        TortureConfig {
            seed,
            backend: TortureBackend::Mem,
            ops: 400,
            key_space: 512,
            sync_every: 9,
            checkpoint_every: 140,
            read_error_rate: 0.01,
            write_error_rate: 0.01,
            continue_ops: 60,
            bundle_dir: None,
            always_dump: false,
        }
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

/// What one crash cycle did — for aggregation and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TortureReport {
    /// The seed that produced this cycle.
    pub seed: u64,
    /// Requests issued before the crash (including the ones that failed).
    pub issued: u64,
    /// The device-op count the power cut fired at.
    pub cut_device_op: u64,
    /// Whether the scheduled cut fired mid-workload (vs forced at the end).
    pub cut_mid_workload: bool,
    /// Requests acknowledged durable at the crash: the prefix every
    /// recovered state must cover.
    pub durable_floor: u64,
    /// The request prefix the recovered state matched.
    pub matched_prefix: u64,
    /// Live keys in the recovered tree.
    pub recovered_keys: u64,
    /// Requests replayed from the WAL during recovery.
    pub replayed: u64,
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

/// What both cycles carry and bundle: a deterministic handle ([`TickClock`],
/// no wall-clock time) feeding a [`FlightRecorderSink`], a
/// [`DecisionLedger`] on every tree, and the scratch files the cycle
/// removes however it ends. Sinks cannot perturb a cycle (the
/// observer-effect contract), so same-seed bundles are byte-identical.
struct BlackBox {
    seed: u64,
    bundle_dir: Option<PathBuf>,
    /// The command that replays the cycle.
    repro: String,
    /// What a failure bundle's reason starts with.
    kind: &'static str,
    recorder: Arc<FlightRecorderSink>,
    ledger: Arc<DecisionLedger>,
    sink: SinkHandle,
    /// The single-writer cycle's device, for its I/O counters, and the
    /// same device for its wear when it is in memory.
    device: Option<Arc<dyn BlockDevice>>,
    mem: Option<Arc<MemDevice>>,
    scratch: Vec<PathBuf>,
}

impl BlackBox {
    /// A black box for the cycle of `seed`, whose scratch paths are
    /// removed first: a leftover of an earlier run is no part of this one.
    fn new(
        kind: &'static str,
        seed: u64,
        bundle_dir: Option<PathBuf>,
        repro: String,
        scratch: Vec<PathBuf>,
    ) -> Self {
        let recorder = Arc::new(FlightRecorderSink::new(512));
        let sink =
            SinkHandle::with_clock(Arc::new(TickClock::new())).and(Arc::clone(&recorder) as _);
        let ledger = Arc::new(DecisionLedger::new(256));
        let bb = BlackBox {
            seed,
            bundle_dir,
            repro,
            kind,
            recorder,
            ledger,
            sink,
            device: None,
            mem: None,
            scratch,
        };
        bb.cleanup();
        bb
    }

    /// The options of every tree a cycle runs before its crash: the black
    /// box attached.
    fn opts(&self, commit: CommitMode) -> TreeOptions {
        TreeOptions::builder()
            .policy(PolicySpec::ChooseBest)
            .retry(RetryPolicy { max_attempts: 4, base_backoff_us: 0 })
            .group_commit(commit)
            .sink(self.sink.clone())
            .ledger(Arc::clone(&self.ledger))
            .build()
    }

    /// Remove the scratch files and directories.
    fn cleanup(&self) {
        for path in &self.scratch {
            std::fs::remove_file(path).or_else(|_| std::fs::remove_dir_all(path)).ok();
        }
    }

    /// Write a bundle if a directory is configured; returns its path.
    fn dump(&self, reason: &str, error: Option<&str>, section: Section) -> Option<PathBuf> {
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
        if let Some((key, json)) = section {
            pm = pm.section(key, json);
        }
        pm.write_to(&path).ok()?;
        Some(path)
    }

    /// End the cycle at a failed step `what`: bundle, clean up, say why.
    fn fail(&self, what: &str, message: String, section: Section) -> TortureFailure {
        let bundle = self.dump(&format!("{} failure: {what}", self.kind), Some(&message), section);
        self.cleanup();
        TortureFailure { seed: self.seed, message, bundle }
    }

    /// End a cycle that passed: a bundle if asked for, and clean up.
    fn pass(&self, always_dump: bool, section: Section) {
        if always_dump {
            self.dump("explicit dump", None, section);
        }
        self.cleanup();
    }
}

/// A bundle's section beside the black box: the tree, or the scheduler.
type Section = Option<(&'static str, Json)>;

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

/// The one durability judgement of both cycles: what recovery kept of a
/// tree (or shard) must be a prefix of its `history` that covers every
/// acknowledged request. Returns that prefix and the live keys recovered.
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

/// Run one seeded crash cycle; `Err` carries the violated invariant, the
/// seed for replay, and (when [`TortureConfig::bundle_dir`] is set) the
/// path of the post-mortem bundle the failure wrote.
///
/// Every cycle runs with a black box attached: a deterministic
/// [`SinkHandle`] ([`TickClock`]) feeding a [`FlightRecorderSink`], plus a
/// [`DecisionLedger`] on the tree. On failure — or on success with
/// [`TortureConfig::always_dump`] — their contents are serialized into a
/// bundle at [`bundle_path`]. Bundles are deterministic: two runs of the
/// same seed produce byte-identical files.
pub fn run_crash_cycle(cfg: &TortureConfig) -> Result<TortureReport, TortureFailure> {
    let base = scratch_path("lsm-torture", cfg.seed);
    let (man_path, wal_path, dev_path) =
        (base.with_extension("manifest"), base.with_extension("wal"), base.with_extension("dev"));
    let file_arg = if cfg.backend == TortureBackend::File { " --backend=file" } else { "" };
    let repro = format!(
        "cargo run --release -p lsm-bench --bin lsm_crash -- --seeds=1 --seed-base={}{file_arg}",
        cfg.seed
    );
    let scratch = vec![man_path.clone(), wal_path.clone(), dev_path.clone()];
    let mut bb = BlackBox::new("torture", cfg.seed, cfg.bundle_dir.clone(), repro, scratch);

    let mut rng = SplitMix64::new(cfg.seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    // Group commit or not: a stream of its own, so that the draw moves
    // nothing else the seed decides.
    let group = SplitMix64::new(cfg.seed ^ 0x6C0C_0FFE).chance(0.5);
    let mem = (cfg.backend == TortureBackend::Mem)
        .then(|| Arc::new(MemDevice::with_block_size(1 << 14, 256)));
    let inner: Arc<dyn BlockDevice> = match &mem {
        Some(mem) => Arc::clone(mem) as _,
        None => Arc::new(
            sim_ssd::FileDevice::create_with_block_size(&dev_path, 1 << 14, 256)
                .map_err(|e| bb.fail("device", format!("file device create failed: {e}"), None))?,
        ),
    };
    (bb.device, bb.mem) = (Some(Arc::clone(&inner)), mem);
    let fault = Arc::new(FaultDevice::new(Arc::clone(&inner), cfg.seed));

    let opts = bb.opts(if group { CommitMode::Group } else { CommitMode::Buffered });
    let dev = Arc::clone(&fault) as Arc<dyn BlockDevice>;
    let mut tree = DurableLsmTree::create(tiny_cfg(), opts.clone(), dev, &man_path, &wal_path)
        .map_err(|e| bb.fail("create", format!("create failed: {e}"), None))?;

    // Schedule the cut only now, so creation itself cannot be cut: an
    // index that never existed has no durability contract to check. The
    // cut lands at a uniformly random *device* op, so it can interrupt a
    // merge cascade between any two block writes. The cache absorbs most
    // reads, so a workload of N requests issues roughly N/3 device ops;
    // sizing the window to that keeps most cuts inside the workload while
    // still leaving some to fire at (or after) the forced end-of-run cut.
    let cut_window = cfg.ops / 3 + 1;
    let cut_at = fault.ops_issued() + 1 + rng.gen_range(cut_window);
    fault.set_plan(
        FaultPlan::none()
            .read_error_rate(cfg.read_error_rate)
            .write_error_rate(cfg.write_error_rate)
            .power_cut_at(cut_at),
    );

    // ------------------------------------------------------------------
    // Phase 1: workload until the crash. Every request enters the history
    // before it is applied: WAL-first ordering means a request whose apply
    // fails may still have reached the log.
    // ------------------------------------------------------------------
    let mut history = HistoryChecker::new();
    let mut durable_floor = 0; // requests covered by the last fsync
    let mut cut_mid_workload = false;
    let run_len = if group { cfg.sync_every } else { 1 };
    while (history.len() as u64) < cfg.ops {
        let before = history.len() as u64;
        let mut batch = WriteBatch::new();
        for _ in 0..run_len.min(cfg.ops - before) {
            let (key, value) = draw_op(&mut rng, cfg.key_space);
            batch.push(to_request(&(key, value.clone())));
            history.append(HistoryRecord { writer: 0, key, value, status: AckStatus::Pending });
        }
        let issued = history.len() as u64;
        // Under group commit the batch's own fsync acknowledges it.
        let sync = !group && issued.is_multiple_of(cfg.sync_every);
        let checkpoint = issued / cfg.checkpoint_every > before / cfg.checkpoint_every;
        let acked = tree
            .write_batch(batch)
            .and_then(|()| if sync { tree.sync() } else { Ok(()) })
            .and_then(|()| if checkpoint { tree.checkpoint() } else { Ok(()) });
        if acked.is_err() {
            cut_mid_workload = true;
            break;
        }
        if group || sync || checkpoint {
            durable_floor = history.len();
        }
    }
    (0..durable_floor).for_each(|i| history.set_status(i, AckStatus::Acked));
    let issued = history.len() as u64;
    if !cut_mid_workload {
        fault.power_cut();
    }
    let cut_device_op = fault.ops_issued();

    // ------------------------------------------------------------------
    // Phase 2: the host dies with the device. Leak the tree (no Drop, no
    // final WAL flush), then throw away a random portion of the WAL's
    // flushed-but-unsynced tail. Later bundles still say what the tree
    // looked like before.
    // ------------------------------------------------------------------
    let wal_synced = tree.wal_synced_len();
    let pre_crash_tree = cfg.bundle_dir.is_some().then(|| PostMortem::tree_json(tree.tree()));
    let pre_crash = || pre_crash_tree.clone().map(|tree| ("tree", tree));
    std::mem::forget(tree);
    cut_wal_tail(&wal_path, wal_synced, &mut rng)
        .map_err(|e| bb.fail("wal truncate", format!("wal truncate failed: {e}"), pre_crash()))?;

    // ------------------------------------------------------------------
    // Phase 3: recover from the durable image — the fault decorator's
    // inner device holds exactly the frames that were synced before the
    // cut — and judge it against the history.
    // ------------------------------------------------------------------
    let mut recovered = DurableLsmTree::recover(opts, fault.inner(), &man_path, &wal_path)
        .map_err(|e| bb.fail("recovery", format!("recovery failed: {e}"), pre_crash()))?;
    let replayed = recovered.wal_backlog();
    let now = |t: &mut DurableLsmTree| Some(("tree", PostMortem::tree_json(t.tree())));
    let (matched_prefix, recovered_keys) = judge(&history, recovered.tree()).map_err(|msg| {
        let msg = format!("{msg}; issued {issued}, replayed {replayed}");
        bb.fail("durability history", msg, now(&mut recovered))
    })?;

    // ------------------------------------------------------------------
    // Phase 4: life goes on — the recovered tree must take new writes and
    // pass the deep structural check.
    // ------------------------------------------------------------------
    let life = (0..cfg.continue_ops)
        .try_for_each(|i| {
            let op = draw_op(&mut rng, cfg.key_space);
            recovered.apply(to_request(&op)).map_err(|e| format!("continuation op {i} failed: {e}"))
        })
        .and_then(|()| {
            recovered.checkpoint().map_err(|e| format!("post-recovery checkpoint failed: {e}"))
        })
        .and_then(|()| {
            crate::verify::check_tree(recovered.tree(), true)
                .map_err(|e| format!("deep check after recovery failed: {e}"))
        });
    if let Err(msg) = life {
        return Err(bb.fail("after recovery", msg, now(&mut recovered)));
    }
    let last = cfg.always_dump.then(|| now(&mut recovered)).flatten();
    drop(recovered);
    bb.pass(cfg.always_dump, last);
    Ok(TortureReport {
        seed: cfg.seed,
        issued,
        cut_device_op,
        cut_mid_workload,
        durable_floor: durable_floor as u64,
        matched_prefix,
        recovered_keys,
        replayed,
    })
}

// ======================================================================
// Concurrent torture: M writers + simulated scheduler + faults under
// concurrency + the durability/history checker.
// ======================================================================

/// Knobs of one *concurrent* crash-torture cycle over a
/// [`ShardedLsmTree`](crate::ShardedLsmTree) driven by a
/// [`SimExecutor`](crate::SimExecutor).
/// [`ConcurrentTortureConfig::for_seed`] is the standard smoke shape.
#[derive(Debug, Clone)]
pub struct ConcurrentTortureConfig {
    /// Seed for everything: writer workloads, interleaving choices, fault
    /// plans, the crash point.
    pub seed: u64,
    /// Logical writers (each with its own seeded op stream).
    pub writers: usize,
    /// Shards of the tree under test.
    pub shards: usize,
    /// Writer requests to issue before the power cut is forced.
    pub ops: u64,
    /// Keys are drawn uniformly from `0..key_space`.
    pub key_space: u64,
    /// Per-read transient device error probability (retries absorb these).
    pub read_error_rate: f64,
    /// Per-write transient device error probability.
    pub write_error_rate: f64,
    /// Per-fsync WAL failure probability (these poison — see
    /// [`crate::WalFaultPlan`]).
    pub wal_sync_error_rate: f64,
    /// Admission-control bound of the simulated executor.
    pub max_imm_memtables: usize,
    /// Requests applied to the recovered tree before the final deep check.
    pub continue_ops: u64,
    /// Where to write a post-mortem bundle on failure (or always, with
    /// `always_dump`).
    pub bundle_dir: Option<PathBuf>,
    /// Dump a bundle even on success.
    pub always_dump: bool,
    /// Negative-test hook: mark group-commit writes as acknowledged at
    /// append time, *before* any fsync covers them — the classic
    /// ack-before-fsync bug. The history checker must reject cycles where
    /// the crash eats an "acked" tail.
    pub inject_ack_bug: bool,
}

impl ConcurrentTortureConfig {
    /// The standard concurrent cycle for `seed`: 3 writers over 2 shards,
    /// 120 requests, 128-key space, 2% WAL-fsync fault rate.
    pub fn for_seed(seed: u64) -> Self {
        ConcurrentTortureConfig {
            seed,
            writers: 3,
            shards: 2,
            ops: 120,
            key_space: 128,
            read_error_rate: 0.005,
            write_error_rate: 0.005,
            wal_sync_error_rate: 0.02,
            max_imm_memtables: 2,
            continue_ops: 40,
            bundle_dir: None,
            always_dump: false,
            inject_ack_bug: false,
        }
    }
}

/// What one concurrent crash cycle did. `PartialEq` so the determinism
/// suite can assert two same-seed runs agree field-for-field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcurrentTortureReport {
    /// The seed that produced this cycle.
    pub seed: u64,
    /// Writer requests issued before the crash (including a failed one).
    pub issued: u64,
    /// Requests acknowledged durable before the crash.
    pub acked: u64,
    /// Scheduler interleaving steps the simulated executor ran (each one
    /// half of a maintenance step: a compute or an install).
    pub sim_steps: u64,
    /// Seeded point reads checked against the model of applied writes.
    pub reads: u64,
    /// Writes, reads and fsync steps that ran while some shard had a step
    /// computed but not yet installed.
    pub ops_between_halves: u64,
    /// Seeded group-commit fsyncs that ran to their end (each two steps: the
    /// flush that notes the log's length, then the fsync that publishes it).
    pub group_syncs: u64,
    /// Writes that ran while their shard had a group sync begun but not
    /// yet finished: logged after the length was noted, so not covered.
    pub writes_between_sync_halves: u64,
    /// Whether a fault ended the workload early (vs the forced cut).
    pub cut_mid_workload: bool,
    /// Per shard: the history prefix the recovered state matched.
    pub matched_prefixes: Vec<u64>,
    /// Live keys recovered across all shards.
    pub recovered_keys: u64,
}

/// Run one seeded *concurrent* crash cycle: M seeded writers interleaved
/// with a [`SimExecutor`](crate::SimExecutor)'s maintenance half-steps
/// (a compute or an install each), seeded reads checked against a model
/// of the applied writes, and seeded group-commit fsyncs — in halves too:
/// flush and note the length, then fsync and publish it — over per-shard
/// [`FaultDevice`]s and fsync-fault-armed WALs; then a power cut, WAL
/// tail truncation, recovery, and the per-shard
/// [`HistoryChecker`] prefix-durability check plus
/// the deep structural verifier. Writes, seals, reads, fsyncs, faults and
/// the cut itself all land between a step's compute and its install, and
/// writes between a sync's two halves.
///
/// Everything — the interleaving included — derives from `cfg.seed`, so a
/// failing cycle replays byte-for-byte. Failures carry the seed and, when
/// [`ConcurrentTortureConfig::bundle_dir`] is set, a post-mortem bundle
/// with a `scheduler` section (job queue, backlogs, open group-commit
/// rendezvous).
pub fn run_concurrent_crash_cycle(
    cfg: &ConcurrentTortureConfig,
) -> Result<ConcurrentTortureReport, TortureFailure> {
    use crate::scheduler::SchedulerBackend;
    use crate::sharded::ShardedLsmTree;
    use crate::sim::SimExecutor;
    use crate::wal::WalFaultPlan;

    assert!(cfg.writers >= 1 && cfg.shards >= 1, "need at least one writer and shard");
    let wal_dir = scratch_path("lsm-ctorture", cfg.seed);
    let repro = format!(
        "cargo run --release -p lsm-bench --bin lsm_crash -- \
         --scheduler=background --writers={} --shards={} --seeds=1 --seed-base={}",
        cfg.writers, cfg.shards, cfg.seed
    );
    let bb = BlackBox::new(
        "concurrent torture",
        cfg.seed,
        cfg.bundle_dir.clone(),
        repro,
        vec![wal_dir.clone()],
    );
    std::fs::create_dir_all(&wal_dir).ok();

    let mut rng = SplitMix64::new(cfg.seed ^ 0xC04C_0441_57EE_DEAD);

    // Per-shard fault devices (seeded per shard) and the simulated
    // scheduler that will make every maintenance decision.
    let faults: Vec<Arc<FaultDevice>> = (0..cfg.shards as u64)
        .map(|i| {
            let inner = Arc::new(MemDevice::with_block_size(1 << 14, 256));
            Arc::new(FaultDevice::new(inner, cfg.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        })
        .collect();
    let sim = Arc::new(SimExecutor::new(cfg.max_imm_memtables, cfg.seed, bb.sink.clone()));

    // A one-block L0: a few dozen requests seal several memtables per
    // shard, so flushes, level merges and growth all happen — in halves —
    // before the cut.
    let tree_cfg = LsmConfig { k0_blocks: 1, ..tiny_cfg() };
    let tree = ShardedLsmTree::with_backend(
        tree_cfg.clone(),
        bb.opts(CommitMode::Group),
        faults.iter().map(|f| Arc::clone(f) as Arc<dyn BlockDevice>).collect(),
        Some(&wal_dir),
        Some(Arc::clone(&sim) as Arc<dyn SchedulerBackend>),
    )
    .map_err(|e| bb.fail("create", format!("create failed: {e}"), None))?;

    // Arm faults only now, so creation itself cannot be cut. One seeded
    // shard gets a scheduled device power cut (it fires inside a flush or
    // merge, if maintenance reaches that op count); every shard's WAL gets
    // the fsync fault rate; and a seeded "soft cut" may end the workload
    // between two interleaving steps — the host dying with the devices
    // intact.
    let cut_shard = rng.gen_range(cfg.shards as u64) as usize;
    let cut_at = faults[cut_shard].ops_issued() + 1 + rng.gen_range(cfg.ops / 2 + 1);
    for (i, fault) in faults.iter().enumerate() {
        let mut plan = FaultPlan::none()
            .read_error_rate(cfg.read_error_rate)
            .write_error_rate(cfg.write_error_rate);
        if i == cut_shard {
            plan = plan.power_cut_at(cut_at);
        }
        fault.set_plan(plan);
    }
    for i in 0..cfg.shards {
        tree.set_wal_fault_plan(
            i,
            WalFaultPlan::none().sync_error_rate(cfg.wal_sync_error_rate),
            cfg.seed ^ (i as u64).rotate_left(17),
        );
    }
    let soft_cut_tick: Option<u64> = rng.chance(0.5).then(|| 1 + rng.gen_range(cfg.ops * 2));

    // ------------------------------------------------------------------
    // Phase 1: the interleaved workload. Every iteration makes one seeded
    // choice: a writer op, a scheduler maintenance half-step, a read, or a
    // group-commit fsync step. The first fault (or the soft cut) ends the
    // workload.
    // ------------------------------------------------------------------
    let mut writer_rngs: Vec<SplitMix64> = (0..cfg.writers)
        .map(|w| SplitMix64::new(cfg.seed ^ (w as u64 + 1).wrapping_mul(0xB0B0_0000_CAFE_F00D)))
        .collect();
    let mut histories: Vec<HistoryChecker> =
        (0..cfg.shards).map(|_| HistoryChecker::new()).collect();
    // Per shard: (history index, WAL offset) of group writes awaiting an
    // fsync that covers them.
    let mut pending_group: Vec<Vec<(usize, u64)>> = vec![Vec::new(); cfg.shards];
    // What a read must return: the last write applied per key. One thread
    // makes every call, so "applied" is simply "returned `Ok`" — whatever
    // the scheduler has computed or installed in between.
    let mut model: HashMap<u64, Option<Vec<u8>>> = HashMap::new();
    let mut issued = 0u64;
    let mut reads = 0u64;
    let mut ops_between_halves = 0u64;
    let mut group_syncs = 0u64;
    // Per shard: a group sync has begun and not finished.
    let mut sync_begun = vec![false; cfg.shards];
    let mut writes_between_sync_halves = 0u64;
    let mut cut_mid_workload = false;
    let mut tick = 0u64;

    while issued < cfg.ops {
        tick += 1;
        if soft_cut_tick == Some(tick) {
            cut_mid_workload = true;
            break;
        }
        let choice = rng.gen_range(cfg.writers as u64 + 4);
        let half_step = (cfg.writers as u64..cfg.writers as u64 + 2).contains(&choice);
        if !half_step && sim.awaiting_install() > 0 {
            ops_between_halves += 1;
        }
        if choice < cfg.writers as u64 {
            // One writer op.
            let w = choice as usize;
            let (key, value) = draw_op(&mut writer_rngs[w], cfg.key_space);
            let idx = tree.shard_of(key);
            let req = to_request(&(key, value.clone()));
            issued += 1;
            writes_between_sync_halves += u64::from(sync_begun[idx]);
            match tree.apply_unacked(idx, req) {
                Ok(durable_at) => {
                    model.insert(key, value.clone());
                    // Acked once a seeded sync covers it; the injected bug
                    // acks it here, unsynced.
                    let pending = durable_at.filter(|_| !cfg.inject_ack_bug);
                    let status =
                        if pending.is_some() { AckStatus::Pending } else { AckStatus::Acked };
                    let rec =
                        histories[idx].append(HistoryRecord { writer: w, key, value, status });
                    if let Some(seq) = pending {
                        pending_group[idx].push((rec, seq));
                    }
                }
                Err(_) => {
                    // The append may still have reached the log (e.g. an
                    // fsync that failed after the bytes hit the file), so
                    // it stays in the history as a Failed record.
                    histories[idx].append(HistoryRecord {
                        writer: w,
                        key,
                        value,
                        status: AckStatus::Failed,
                    });
                    cut_mid_workload = true;
                    break;
                }
            }
        } else if choice == cfg.writers as u64 + 3 {
            // One read, against the model.
            let key = rng.gen_range(cfg.key_space);
            reads += 1;
            match tree.get(key) {
                Ok(got) => {
                    let want = model.get(&key).cloned().flatten();
                    if got.as_deref() != want.as_deref() {
                        let msg = format!(
                            "read of key {key} returned {got:?}, the model of applied writes has \
                             {want:?} (after {issued} writes, {} half-steps)",
                            sim.steps_taken()
                        );
                        let section = Some(("scheduler", tree.scheduler_section_json()));
                        return Err(bb.fail("read", msg, section));
                    }
                }
                Err(_) => {
                    cut_mid_workload = true;
                    break;
                }
            }
        } else if half_step {
            // One half of a scheduler maintenance step.
            if sim.step().is_err() {
                cut_mid_workload = true;
                break;
            }
        } else {
            // One half of a group-commit fsync on a seeded shard. The first
            // notes the log's length; the second makes everything appended
            // up to there durable (and acked) — not what was appended in
            // between — or fails and poisons the shard's WAL and rendezvous.
            let s = rng.gen_range(cfg.shards as u64) as usize;
            match tree.group_sync_step(s) {
                Ok(None) => sync_begun[s] = true,
                Ok(Some(synced)) => {
                    sync_begun[s] = false;
                    group_syncs += 1;
                    pending_group[s].retain(|&(rec, seq)| {
                        if seq <= synced {
                            histories[s].set_status(rec, AckStatus::Acked);
                            false
                        } else {
                            true
                        }
                    });
                }
                Err(_) => {
                    cut_mid_workload = true;
                    break;
                }
            }
        }
    }
    if !cut_mid_workload {
        for fault in &faults {
            fault.power_cut();
        }
    }
    let sim_steps = sim.steps_taken();
    let acked =
        histories.iter().flat_map(|h| h.records()).filter(|r| r.status == AckStatus::Acked).count()
            as u64;

    // ------------------------------------------------------------------
    // Phase 2: the host dies. Snapshot the scheduler section first (the
    // bundle's forensic view of the job queue and open rendezvous), then
    // leak the tree and cut each WAL's unsynced tail.
    // ------------------------------------------------------------------
    let sched_section = cfg.bundle_dir.is_some().then(|| tree.scheduler_section_json());
    let sched = || sched_section.clone().map(|section| ("scheduler", section));
    let wal_synced = tree.wal_synced_lens();
    std::mem::forget(tree);
    for (i, &synced) in wal_synced.iter().enumerate() {
        cut_wal_tail(&ShardedLsmTree::wal_path(&wal_dir, i), synced, &mut rng).map_err(|e| {
            bb.fail("wal truncate", format!("wal truncate failed for shard {i}: {e}"), sched())
        })?;
    }

    // ------------------------------------------------------------------
    // Phase 3: recover (WAL-only: fresh shards, full replay of each
    // intact prefix) and judge every shard against its history.
    // ------------------------------------------------------------------
    let r_opts = TreeOptions::builder()
        .policy(PolicySpec::ChooseBest)
        .retry(RetryPolicy { max_attempts: 4, base_backoff_us: 0 })
        .build();
    let recovered =
        ShardedLsmTree::recover_with_wal(tree_cfg, r_opts, cfg.shards, 1 << 14, &wal_dir)
            .map_err(|e| bb.fail("recovery", format!("recovery failed: {e}"), sched()))?;
    let mut matched_prefixes = Vec::with_capacity(cfg.shards);
    let mut recovered_keys = 0u64;
    for (i, history) in histories.iter().enumerate() {
        let (prefix, keys) =
            recovered.with_shard_read(i, |t| judge(history, t)).map_err(|msg| {
                let msg = format!("shard {i}: {msg}; {acked} acked of {issued} issued");
                bb.fail("durability history", msg, sched())
            })?;
        matched_prefixes.push(prefix);
        recovered_keys += keys;
    }

    // ------------------------------------------------------------------
    // Phase 4: life goes on — the recovered tree takes new writes, then
    // passes the deep structural check on every shard.
    // ------------------------------------------------------------------
    let life = (0..cfg.continue_ops)
        .try_for_each(|i| {
            let op = draw_op(&mut rng, cfg.key_space);
            recovered.apply(to_request(&op)).map_err(|e| format!("continuation op {i} failed: {e}"))
        })
        .and_then(|()| recovered.flush().map_err(|e| format!("post-recovery flush failed: {e}")))
        .and_then(|()| {
            recovered
                .deep_verify(true)
                .map_err(|e| format!("deep check after recovery failed: {e}"))
        });
    if let Err(msg) = life {
        return Err(bb.fail("after recovery", msg, sched()));
    }
    drop(recovered);
    bb.pass(cfg.always_dump, sched());
    Ok(ConcurrentTortureReport {
        seed: cfg.seed,
        issued,
        acked,
        sim_steps,
        reads,
        ops_between_halves,
        group_syncs,
        writes_between_sync_halves,
        cut_mid_workload,
        matched_prefixes,
        recovered_keys,
    })
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
            assert!(report.matched_prefix >= report.durable_floor);
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
            assert!(report.matched_prefix >= report.durable_floor);
            assert!(report.matched_prefix <= report.issued);
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
