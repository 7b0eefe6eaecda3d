//! One shard: a tree and its optional write-ahead log behind one lock,
//! with the only copy of everything decided per shard — the write loop,
//! the group-commit rendezvous, and the maintenance step the scheduler
//! runs, and the checkpoint. [`crate::ShardedLsmTree`] is a router over a
//! `Vec<Shard>`.
//!
//! The write path of one run of requests ([`Shard::apply`]: a batch's
//! share of this shard, or a single put as a run of one), lock regions
//! drawn once:
//!
//! ```text
//! put span ─┬─ no lock ──────── validate the whole run (nothing is logged if any request is refused)
//!           ├─ per chunk of at most MAX_REQUESTS_PER_HOLD requests:
//!           │   ├─ no lock ──── encode the chunk's WAL frames, checksums included
//!           │   ├─ lock ─────── per segment (ends where the memtable can first be full):
//!           │   │                 background: full memtable and backlog at the bound? ─ stall
//!           │   │                 one WAL write of the segment's frames → memtable inserts
//!           │   │                 → inline: cascade │ background: seal if room ─ unlock
//!           │   └─ unlock ───── notify the scheduler of a seal; stall: wait_for_room, retry
//!           └─ ack ──────────── caller's step: group-commit wait, an fsync, or defer it
//! ```
//!
//! of the group-commit leader ([`Shard::group_wait`]), which fsyncs beside
//! the other writers' chunks, not between them:
//!
//! ```text
//! lead ─┬─ lock ─────── flush the log's buffer, note its length ─ unlock
//!       ├─ no lock ──── fsync (the other writers append meanwhile)
//!       └─ group state ─ publish the *noted* length, wake the followers
//! ```
//!
//! and of one maintenance step ([`Shard::compute`], [`Shard::install`]), which the write path
//! above and every get run *beside*, not behind:
//!
//! ```text
//! compute ─┬─ read lock ──── snapshot: clone the level and memtable `Arc`s ─ unlock
//!          └─ no lock ────── policy choice, device reads, merge, device writes
//! install ─┬─ write lock ─── drop the flushed window, splice the levels (no I/O) ─ unlock
//!          └─ no lock ────── free the blocks the step replaced
//! ```
//!
//! and of a checkpoint ([`Shard::checkpoint`]), the one hold besides the
//! inline cascade that does I/O:
//!
//! ```text
//! checkpoint ─┬─ write lock ─── fsync the log → manifest (device sync, write, rename)
//!             │                 → truncate the log (its position stays) ─ unlock
//!             └─ group state ── publish the cut: every earlier position is covered
//! ```
//!
//! The shard lock is taken for writing by the write path (a chunk), the
//! install and the checkpoint, plus the few instructions in which a sync
//! flushes the log's buffer and notes its length. It is never held across
//! a scheduler call or the rendezvous, never across an fsync but the
//! checkpoint's, and with a background scheduler nothing but the
//! checkpoint touches the device under it (the inline cascade does too) —
//! [`crate::lockorder`] asserts all three in debug builds. What a put or
//! get can wait for is therefore one chunk, one install (a splice and a
//! handful of map removals) or one checkpoint, not one commit or one merge.
//!
//! Block lifetime: gets and scans hold the read lock for as long as they
//! follow fences, so no reader outlives an install; the blocks an install
//! unlinked are freed right after it, through [`Store::free_block`].
//!
//! [`Store::free_block`]: crate::Store::free_block

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Weak;
use std::time::Duration;

use observe::{Event, Json, SinkHandle, SpanOp};
use parking_lot::{Condvar, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use sim_ssd::DeviceError;

use crate::config::CommitMode;
use crate::error::{LsmError, Result};
use crate::lockorder::{self, Hold, TreeLockGuard};
use crate::record::Request;
use crate::scheduler::{self, MaintainTarget, MergeScheduler};
use crate::tree::{self, LsmTree, StepOutcome};
use crate::wal::{PendingSync, WalFaultPlan, WriteAheadLog};

/// The most requests one hold of the shard lock applies: a get or scan
/// beside a commit of any size waits for one chunk, not for the commit.
///
/// A constant, not an option; no caller wants another value. Measured on
/// the `durable` write phase (one shard, two writers × 8 192-put group
/// commits, 121-byte frames, both cores up; the per-put lock of before
/// read 325–381 kput/s): 16 → 455–577, 64 → 404–677, **256 → 582–708**,
/// 1 024 → 631–725, 8 192 (a commit per hold) → 762–913 kput/s. A hold
/// of 256 is 0.2–0.3 ms — under the ≈ 1 ms inline flush step that a get
/// could already meet — and a get beside one writer waits 2.4–2.7 ms at
/// p99 at 16 and at 256 alike, 8–9 ms at 8 192. Below 256 the lock
/// changes hands (and the memtable changes cores) too often; above it
/// the few percent gained are paid in what a get waits for.
pub(crate) const MAX_REQUESTS_PER_HOLD: usize = 256;

/// How many times a writer yields to readers waiting for the lock before it
/// takes its turn regardless.
const READER_TURN_YIELDS: usize = 1 << 10;

thread_local! {
    /// The calling writer's frame buffer — one chunk's WAL frames at a
    /// time — kept between calls, so that a put allocates nothing.
    static FRAMES: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// [`FRAMES`], taken for the length of one [`Shard::apply`] (empty, and
/// not put back, on a shard that does not log).
struct Frames(Vec<u8>);

impl Drop for Frames {
    fn drop(&mut self) {
        if self.0.capacity() > 0 {
            // Not there while the thread is being torn down: drop the buffer.
            let _ = FRAMES.try_with(|cell| cell.set(std::mem::take(&mut self.0)));
        }
    }
}

/// What the shard lock protects.
pub(crate) struct ShardState {
    pub(crate) tree: LsmTree,
    pub(crate) wal: Option<WriteAheadLog>,
    /// An inline cascade failed part-way: a level may still overflow, so
    /// the next request runs the cascade whether or not it fills the
    /// memtable. Otherwise no level overflows outside a cascade, and only
    /// a request that fills the memtable can start one.
    cascade_owed: bool,
}

/// Leader/follower group-commit state (only consulted under
/// [`CommitMode::Group`]). Writers append under the shard lock, release
/// it, then rendezvous here: the first waiter becomes the leader and
/// issues one fsync covering every append buffered so far; the rest ride
/// along on the leader's fsync.
#[derive(Default)]
struct GroupState {
    /// WAL position known crash-durable, or covered by a checkpoint.
    synced_seq: u64,
    /// A leader is currently fsyncing.
    leader_running: bool,
    /// A leader's fsync failed. The WAL underneath is poisoned (see
    /// [`WriteAheadLog::sync`]), so every rendezvous participant whose
    /// offset is not already durable must error — a follower may never be
    /// acked on the strength of an fsync that failed. Cleared only by
    /// recovery (a fresh handle), mirroring the WAL's own poison.
    poisoned: bool,
}

/// An independent tree, its optional WAL, and its commit rendezvous.
pub(crate) struct Shard {
    idx: usize,
    state: RwLock<ShardState>,
    group: Mutex<GroupState>,
    group_cv: Condvar,
    /// The user's handle tagged with this shard's index (the tree reports
    /// through a clone of it), kept outside the lock so wait-state spans
    /// open without the tree.
    sink: SinkHandle,
    commit: CommitMode,
    /// Whether the shard has a WAL: fixed before the shard is shared, so
    /// the write path knows without the lock whether to encode frames.
    logged: bool,
    /// The tree's block size, for validating a run without the lock.
    block_size: usize,
    /// Readers that found the lock taken and wait for it ([`Shard::read`]).
    readers_waiting: AtomicUsize,
    /// A maintenance step between its halves: computed, not yet installed.
    /// The scheduler runs one maintainer per shard, so at most one.
    computed: Mutex<Option<StepOutcome>>,
    /// A seeded group sync between its halves ([`Shard::group_sync_step`]).
    begun_sync: Mutex<Option<PendingSync>>,
    /// The most requests any one hold of the lock has applied.
    #[cfg(test)]
    longest_hold: AtomicUsize,
}

impl Shard {
    /// Shard `idx` over a built `tree` (fresh, or restored from a
    /// manifest), which it reports through, with a fresh log at `wal_path`
    /// if one is given.
    pub(crate) fn new(idx: usize, tree: LsmTree, wal_path: Option<&Path>) -> Result<Self> {
        let wal = wal_path.map(WriteAheadLog::create).transpose()?;
        Ok(Shard {
            idx,
            logged: wal.is_some(),
            sink: tree.sink().clone(),
            commit: tree.commit_mode(),
            block_size: tree.config().block_size,
            // A restored tree may come with a level still to merge.
            state: RwLock::new(ShardState { cascade_owed: tree.maintenance_pending(), tree, wal }),
            group: Mutex::new(GroupState::default()),
            group_cv: Condvar::new(),
            readers_waiting: AtomicUsize::new(0),
            computed: Mutex::new(None),
            begun_sync: Mutex::new(None),
            #[cfg(test)]
            longest_hold: AtomicUsize::new(0),
        })
    }

    /// Replay the intact prefix of the log at `path` into this (not yet
    /// shared) shard and adopt the log.
    pub(crate) fn recover(&mut self, path: &Path) -> Result<()> {
        let (wal, requests) = WriteAheadLog::open_and_replay(path)?;
        let replayed = requests.len() as u64;
        let state = self.state.get_mut();
        let span = self.sink.span(SpanOp::recovery());
        for req in requests {
            state.tree.apply(req)?;
        }
        drop(span);
        self.sink.emit_with(|| Event::Recovery { replayed });
        state.wal = Some(wal);
        self.logged = true;
        Ok(())
    }

    /// The shard lock, shared: lookups, scans, probes.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, ShardState> {
        if let Some(guard) = self.state.try_read() {
            return guard;
        }
        // Writers come back for the lock chunk after chunk, and the lock
        // lets a waiting writer in before a waiting reader: say that a
        // reader waits, and they stand back between two chunks.
        self.readers_waiting.fetch_add(1, Ordering::SeqCst);
        let guard = self.state.read();
        self.readers_waiting.fetch_sub(1, Ordering::SeqCst);
        guard
    }

    /// The shard lock, exclusive, marked for the lock-order assertions as
    /// a section of kind `hold`: only the inline cascade and the checkpoint
    /// touch the device, and only the checkpoint fsyncs.
    fn lock(&self, hold: Hold) -> (RwLockWriteGuard<'_, ShardState>, TreeLockGuard) {
        // Let a reader that found the lock taken go first (see `read`): it
        // gets in as soon as no writer holds the lock or queues for it.
        // Bounded, so that readers can delay a writer but never stop it.
        for _ in 0..READER_TURN_YIELDS {
            if self.readers_waiting.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::yield_now();
        }
        let guard = self.state.write();
        (guard, lockorder::tree_lock_held(hold))
    }

    /// Whether the shard's tree accepts `req`: its block size never changes,
    /// so no lock is needed to say.
    pub(crate) fn check(&self, req: &Request) -> Result<()> {
        tree::check_request(self.block_size, req)
    }

    /// The write path of a run of requests (module docs draw it); a single
    /// put is a run of one. The requests are moved out of `run`. `sched` is
    /// the background scheduler, if any: with one a full memtable is sealed
    /// and handed over instead of merged inline, and the writer stalls only
    /// while the sealed backlog sits at the bound. `ack` runs last, inside
    /// the put span and with the lock released, on the WAL offset the run
    /// must see durable before it may be acknowledged (`Some` only under
    /// [`CommitMode::Group`]): [`Shard::group_wait`] on it, fsync
    /// ([`Shard::sync_wal`]: a lone owner needs no rendezvous), or hand it
    /// back (`Ok`) to wait once per batch.
    ///
    /// The run is validated whole, so a refused request fails the call
    /// with nothing logged or applied. A later error (the log, the inline
    /// cascade, a scheduler shutting down) leaves a prefix of the run
    /// applied, and exactly that prefix logged.
    ///
    /// The whole call is one root `put` span whose children partition it:
    /// `lock_wait`, `backpressure_wait`, `wal_append`, `cascade`, whatever
    /// `ack` opens; uncovered time is frame encoding and memtable inserts.
    pub(crate) fn apply<T>(
        &self,
        run: &mut [Request],
        sched: Option<&MergeScheduler>,
        ack: impl FnOnce(Option<u64>) -> Result<T>,
    ) -> Result<T> {
        let _put = self.sink.span(SpanOp::put());
        // A request the tree refuses must not reach the log, or replay
        // would refuse it too and abort recovery.
        run.iter().try_for_each(|req| self.check(req))?;
        let background = sched.map(|s| (s, s.max_imm_memtables()));
        let mut frames = Frames(if self.logged { FRAMES.take() } else { Vec::new() });
        let mut durable_at = None;
        let mut rest = run;
        // The encoded chunk: its requests not yet applied, and where their
        // frames start in `frames`.
        let mut chunk: &mut [Request] = &mut [];
        let mut at = 0;
        loop {
            if chunk.is_empty() {
                if rest.is_empty() {
                    break;
                }
                let n = rest.len().min(MAX_REQUESTS_PER_HOLD);
                (chunk, rest) = rest.split_at_mut(n);
                frames.0.clear();
                at = 0;
                if self.logged {
                    chunk.iter().for_each(|req| WriteAheadLog::encode_frame(req, &mut frames.0));
                }
            }
            let (mut sealed_backlog, mut stalled_at) = (None, None);
            {
                let (mut guard, _held) = {
                    let _lock_wait = self.sink.span(SpanOp::lock_wait());
                    self.lock(if background.is_none() { Hold::Io } else { Hold::NoIo })
                };
                let ShardState { tree, wal, cascade_owed } = &mut *guard;
                #[cfg(test)]
                let hold = chunk.len();
                while !chunk.is_empty() {
                    if let Some((_, max)) = background {
                        let backlog = tree.imm_count();
                        if tree.mem_at_capacity() && backlog >= max {
                            // The check held the lock, the wait must not: a
                            // stalled writer may never block the worker
                            // that will unstall it.
                            stalled_at = Some(backlog);
                            break;
                        }
                    }
                    // A segment ends where the memtable can first be full,
                    // so everything decided on a full memtable is decided
                    // after the same request as when requests come one by
                    // one — and after a request both logged and inserted.
                    let room = tree.mem_room();
                    let n = room.clamp(1, chunk.len());
                    let segment;
                    (segment, chunk) = chunk.split_at_mut(n);
                    if let Some(wal) = wal {
                        let len: usize = segment.iter().map(WriteAheadLog::frame_len).sum();
                        let bytes = &frames.0[at..at + len];
                        durable_at = Some(wal.log_run(segment, bytes, &self.sink)?);
                        at += len;
                    }
                    tree.buffer_run(segment);
                    if n < room && !*cascade_owed {
                        // Not full: nothing to decide (see `cascade_owed`).
                        debug_assert!(!tree.mem_at_capacity());
                        debug_assert!(background.is_some() || !tree.maintenance_pending());
                        continue;
                    }
                    match background {
                        None => {
                            *cascade_owed = true;
                            tree.run_cascade()?;
                            *cascade_owed = false;
                        }
                        // Seal only while the immutable queue has room;
                        // otherwise leave the memtable at capacity so the
                        // next request stalls — sealing past the bound would
                        // grow the backlog without ever exerting
                        // backpressure. The scheduler hears of a seal with
                        // the lock released.
                        Some((_, max)) => {
                            if tree.mem_at_capacity() && tree.imm_count() < max {
                                tree.seal_memtable();
                                sealed_backlog = Some(tree.imm_count());
                                break;
                            }
                        }
                    }
                }
                #[cfg(test)]
                self.longest_hold.fetch_max(hold - chunk.len(), Ordering::Relaxed);
            }
            // A hold ends at a seal or at a stall, never both.
            if let (Some((s, _)), Some(backlog)) = (background, sealed_backlog.or(stalled_at)) {
                s.notify(self.idx, backlog);
            }
            if let (Some((s, _)), Some(_)) = (background, stalled_at) {
                let _stall = self.sink.span(SpanOp::backpressure_wait());
                s.wait_for_room(self.idx)?;
            }
        }
        ack(durable_at.filter(|_| self.commit == CommitMode::Group))
    }

    /// First half of a step (module docs draw it): snapshot under the read
    /// lock, then choose, read, merge and write with no lock at all.
    /// Returns whether there was work; if so its outcome now awaits
    /// [`Shard::install`]. An error leaves the tree as it was.
    pub(crate) fn compute(&self) -> Result<bool> {
        lockorder::assert_no_tree_lock("Shard::compute");
        let Some(snapshot) = self.read().tree.snapshot_step() else { return Ok(false) };
        let _cascade = self.sink.span(SpanOp::cascade());
        let outcome = snapshot.compute()?;
        let earlier = self.computed.lock().replace(outcome);
        debug_assert!(earlier.is_none(), "two maintainers on one shard");
        Ok(true)
    }

    /// Second half: install the computed step under the write lock — no
    /// device I/O in there — then free the blocks it replaced with the
    /// lock released. No-op when nothing was computed.
    pub(crate) fn install(&self) -> Result<()> {
        let Some(mut outcome) = self.computed.lock().take() else { return Ok(()) };
        self.lock(Hold::NoIo).0.tree.install(&mut outcome);
        outcome.release()
    }

    /// Seal the memtable if it is full, returning the backlog if it was. A
    /// put that fills the memtable while the backlog sits at the bound
    /// leaves it unsealed for the next put to stall on; `flush` must not
    /// leave it behind.
    pub(crate) fn seal_if_full(&self) -> Option<usize> {
        let (mut state, _held) = self.lock(Hold::NoIo);
        let tree = &mut state.tree;
        (tree.mem_at_capacity() && tree.seal_memtable()).then(|| tree.imm_count())
    }

    /// Wait until WAL position `my_seq` is durable: become the leader (one
    /// fsync covers every append made before it began), ride on the
    /// current leader's fsync, or find it covered by a checkpoint since.
    /// Never called with the shard lock held.
    ///
    /// Failure contract: when a leader's fsync fails, *every* participant
    /// whose offset is not already durable errors out — the leader with
    /// the fsync error itself, followers with [`DeviceError::Poisoned`].
    /// The WAL poisons itself on the failed fsync, so a follower retrying
    /// leadership would only dress the same failure up as
    /// success-after-the-fact; instead the rendezvous stays poisoned until
    /// recovery builds a fresh handle.
    ///
    /// A follower stuck past the watchdog budget means the rendezvous
    /// hung: it panics with `hang_dump()` rather than wait forever (see
    /// [`scheduler::set_watchdog_timeout_ms`]).
    pub(crate) fn group_wait(&self, my_seq: u64, hang_dump: &dyn Fn() -> Json) -> Result<()> {
        lockorder::assert_no_tree_lock("Shard::group_wait");
        // Covers the whole rendezvous — follower waits and the leader's
        // fsync alike.
        let _wait = self.sink.span(SpanOp::group_commit_wait());
        let mut waited = Duration::ZERO;
        let mut s = self.group.lock();
        loop {
            if s.synced_seq >= my_seq {
                return Ok(());
            }
            if s.poisoned {
                return Err(DeviceError::Poisoned.into());
            }
            if !s.leader_running {
                s.leader_running = true;
                drop(s);
                if self.finish_sync(self.begin_sync())? >= my_seq {
                    return Ok(());
                }
                s = self.group.lock();
                continue;
            }
            match scheduler::watchdog_timeout() {
                None => s = self.group_cv.wait(s),
                Some(budget) => {
                    let slice = budget.min(Duration::from_millis(50)).max(Duration::from_millis(1));
                    let (guard, res) = self.group_cv.wait_timeout(s, slice);
                    s = guard;
                    waited = if res.timed_out() { waited + slice } else { Duration::ZERO };
                    if waited >= budget {
                        drop(s);
                        scheduler::watchdog_fire("group-commit rendezvous", hang_dump());
                    }
                }
            }
        }
    }

    /// First half of a sync of this shard's WAL (`None` without one): the
    /// only part that needs the shard lock, and short — flush the log's
    /// buffer, note its length.
    fn begin_sync(&self) -> Result<Option<PendingSync>> {
        self.lock(Hold::NoIo).0.wal.as_mut().map(WriteAheadLog::begin_sync).transpose()
    }

    /// Second half, with the lock released: fsync, and publish to the
    /// rendezvous the position now durable — the length *noted* when the
    /// sync began, whatever was appended since, and nothing if a checkpoint
    /// cut the log in between — or poison it, so every waiting (and future)
    /// follower errors instead of retrying leadership against a WAL that
    /// just poisoned itself. Wakes the followers.
    fn finish_sync(&self, begun: Result<Option<PendingSync>>) -> Result<u64> {
        // No WAL: nothing to make durable.
        let res = begun.and_then(|wal| wal.map_or(Ok(u64::MAX), PendingSync::finish));
        let mut s = self.group.lock();
        s.leader_running = false;
        match &res {
            Ok(synced) => s.synced_seq = s.synced_seq.max(*synced),
            Err(_) => s.poisoned = true,
        }
        self.group_cv.notify_all();
        res
    }

    /// One half of a group sync per call (the torture harness's seeded
    /// sync step; whatever is applied between two calls lands between a
    /// leader's flush and its fsync): begin one and return `None`, or
    /// finish the one begun and return the position now durable.
    pub(crate) fn group_sync_step(&self) -> Result<Option<u64>> {
        if self.group.lock().poisoned {
            return Err(DeviceError::Poisoned.into());
        }
        let begun = self.begun_sync.lock().take();
        match begun {
            Some(sync) => self.finish_sync(Ok(Some(sync))).map(Some),
            None => match self.begin_sync() {
                Ok(Some(sync)) => {
                    *self.begun_sync.lock() = Some(sync);
                    Ok(None)
                }
                // Nothing to wait for in the second half.
                begun => self.finish_sync(begun).map(Some),
            },
        }
    }

    /// Read something off the WAL (`None` without one).
    pub(crate) fn wal<T>(&self, f: impl FnOnce(&WriteAheadLog) -> T) -> Option<T> {
        self.read().wal.as_ref().map(f)
    }

    /// Fsync the WAL (no-op without one).
    pub(crate) fn sync_wal(&self) -> Result<()> {
        self.begin_sync()?.map_or(Ok(()), |sync| sync.finish().map(drop))
    }

    /// Checkpoint (module docs draw it): under the write lock, held as a
    /// [`Hold::Checkpoint`], fsync the log, write the tree's manifest
    /// beside it (`shard-<i>.manifest`) and truncate the log; then publish
    /// the cut to the rendezvous, so a writer waiting on a position from
    /// before it is acked on the manifest's strength. A sync begun before
    /// the cut publishes nothing after it (the log's positions only grow).
    /// Afterwards recovery needs the manifest and what is logged since.
    pub(crate) fn checkpoint(&self) -> Result<()> {
        let (mut state, _held) = self.lock(Hold::Checkpoint);
        let ShardState { tree, wal, .. } = &mut *state;
        let Some(wal) = wal else {
            return Err(LsmError::Config("a checkpoint needs a write-ahead log".into()));
        };
        wal.sync()?;
        tree.checkpoint(manifest_path(wal.path()))?;
        wal.truncate()?;
        let mut s = self.group.lock();
        s.synced_seq = s.synced_seq.max(wal.pos());
        self.group_cv.notify_all();
        Ok(())
    }

    /// The most requests any one hold of the shard lock has applied.
    #[cfg(test)]
    pub(crate) fn longest_hold(&self) -> usize {
        self.longest_hold.load(Ordering::Relaxed)
    }

    /// Arm fsync-fault injection on the WAL (no-op without one).
    pub(crate) fn set_wal_fault_plan(&self, plan: WalFaultPlan, seed: u64) {
        if let Some(wal) = self.lock(Hold::NoIo).0.wal.as_mut() {
            wal.set_fault_plan(plan, seed);
        }
    }

    /// This shard's entry of a report's `rendezvous` array.
    pub(crate) fn rendezvous_json(&self) -> Json {
        let (appended, synced) = self.wal(|w| (w.len_bytes(), w.synced_len())).unwrap_or_default();
        let s = self.group.lock();
        Json::obj([
            ("shard", Json::from(self.idx)),
            ("synced_seq", Json::from(s.synced_seq)),
            ("leader_running", Json::from(s.leader_running)),
            ("poisoned", Json::from(s.poisoned)),
            ("wal_appended", Json::from(appended)),
            ("wal_synced", Json::from(synced)),
        ])
    }
}

/// Where the shard whose log is at `log` checkpoints: beside the log
/// (`shard-<i>.manifest` next to `shard-<i>.wal`).
pub(crate) fn manifest_path(log: &Path) -> PathBuf {
    log.with_extension("manifest")
}

impl Drop for Shard {
    /// Best-effort durability on a clean shutdown.
    fn drop(&mut self) {
        if let Some(wal) = self.state.get_mut().wal.as_mut() {
            let _ = wal.sync();
        }
    }
}

/// The scheduler's handle onto one shard. Holds a `Weak` on the shard
/// vector so the scheduler never keeps the trees alive.
pub(crate) struct ShardTarget {
    pub(crate) shards: Weak<Vec<Shard>>,
    pub(crate) idx: usize,
}

impl MaintainTarget for ShardTarget {
    fn compute(&self) -> Result<bool> {
        self.shards.upgrade().map_or(Ok(false), |s| s[self.idx].compute())
    }

    fn install(&self) -> Result<()> {
        self.shards.upgrade().map_or(Ok(()), |s| s[self.idx].install())
    }

    fn backlog(&self) -> usize {
        self.shards.upgrade().map_or(0, |s| s[self.idx].read().tree.imm_count())
    }

    fn has_pending(&self) -> bool {
        self.shards.upgrade().is_some_and(|s| s[self.idx].read().tree.maintenance_pending())
    }
}
