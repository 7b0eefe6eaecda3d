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
//! put span ─┬─ no lock ──── validate the whole run (nothing is logged if any request is refused)
//!           ├─ no lock ──── encode the run's WAL frames, checksums included, one buffer
//!           │               (a chunk) per MAX_REQUESTS_PER_HOLD requests from the run's start
//!           ├─ no lock ──── longer than a chunk: wait for the writers' turn
//!           ├─ lock ─────── per segment (ends where the memtable can first be full, or its chunk):
//!           │                 background: full memtable and backlog at the bound? ─ stall
//!           │                 one WAL write of the segment's frames → memtable inserts
//!           │                 (logged: views of the frames' payloads) → inline: cascade
//!           │                 │ background: seal if room ─ unlock
//!           │               at every chunk's start, a yield point:
//!           │                 anyone but a writer waiting? ─ unlock, lock again
//!           ├─ unlock ───── notify the scheduler of a seal; stall: wait_for_room; lock again
//!           └─ ack ──────── caller's step: group-commit wait, an fsync, or defer it
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
//! The shard lock is taken for writing by the write path (a run, let go
//! at a yield point whenever anyone but a writer waits), the install and
//! the checkpoint, plus the few instructions in which a sync flushes the
//! log's buffer and notes its length. It is never held across a scheduler
//! call or the rendezvous, never across an fsync but the checkpoint's, and
//! with a background scheduler nothing but the checkpoint touches the
//! device under it (the inline cascade does too) — [`crate::lockorder`]
//! asserts all three in debug builds. What a get, a sync or an install
//! can wait for is therefore one chunk, one install (a splice and a
//! handful of map removals) or one checkpoint, not one commit or one
//! merge. A writer waits out the run ahead of it: a run that reaches a
//! yield point takes its turn among writers first, outside the lock.
//!
//! Block lifetime: gets and scans hold the read lock for as long as they
//! follow fences, so no reader outlives an install; the blocks an install
//! unlinked are freed right after it, through [`Store::free_block`].
//!
//! [`Store::free_block`]: crate::Store::free_block

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Weak;
use std::time::Duration;

use bytes::Bytes;
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

/// The yield interval of a writer's run: every this many requests from
/// the run's start the writer lets go of the shard lock if anyone but a
/// writer waits for it (see `waiting`), so a get or scan beside a commit
/// of any size waits for one chunk, not for the commit — while a writer
/// nobody waits for keeps the lock (and the memtable's cache lines) for
/// its whole run. Also the number of frames in one of a logged run's
/// frame buffers, and in one of recovery's ([`WriteAheadLog::view_frames`]).
///
/// A constant, not an option; no caller wants another value. A chunk of
/// 256 is 0.2–0.3 ms — under the ≈ 1 ms inline flush step that a get
/// could already meet. When this was the longest hold (before yield
/// points), two `durable` writers did 582–708 kput/s at 256 and 762–913
/// at 8 192 (a commit per hold), and a get beside one writer waited
/// 2.4–2.7 ms at p99 at 256 and 8–9 ms at 8 192; yielding only to
/// whoever waits gives both (DESIGN.md §11).
pub(crate) const MAX_REQUESTS_PER_HOLD: usize = 256;

/// How many times a writer yields to whoever waits for the lock before it
/// takes its turn regardless.
const READER_TURN_YIELDS: usize = 1 << 10;

/// What the shard lock protects.
pub(crate) struct ShardState {
    pub(crate) tree: LsmTree,
    pub(crate) wal: Option<WriteAheadLog>,
    /// An inline cascade failed part-way: a level may still overflow, so
    /// the next request runs the cascade whether or not it fills the
    /// memtable. Otherwise no level overflows outside a cascade, and only
    /// a request that fills the memtable can start one.
    cascade_owed: bool,
    /// Write-path lock acquisitions: one per run, plus one after each
    /// yield, seal and stall ([`Shard::apply`]). Counted under the lock,
    /// so that a put pays for no atomic.
    write_holds: u64,
    /// Yield points at which a writer let go of the lock.
    write_yields: u64,
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
    /// The tree's payload size, for validating a run without the lock.
    payload_size: usize,
    /// Taken by a writer for a run that reaches a yield point: one such
    /// writer at a time queues for the lock, the others wait here.
    writers: Mutex<()>,
    /// Everyone but a writer that found the lock taken and waits for it
    /// ([`Shard::read`], [`Shard::lock_waiting`]): a writer's run lets go
    /// at its next yield point while this is not zero.
    waiting: AtomicUsize,
    /// A maintenance step between its halves: computed, not yet installed.
    /// The scheduler runs one maintainer per shard, so at most one.
    computed: Mutex<Option<StepOutcome>>,
    /// A seeded group sync between its halves ([`Shard::group_sync_step`]).
    begun_sync: Mutex<Option<PendingSync>>,
    /// The most requests a writer has applied under the lock between two
    /// yield checks.
    #[cfg(test)]
    longest_stretch: AtomicUsize,
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
            payload_size: tree.config().payload_size,
            // A restored tree may come with a level still to merge.
            state: RwLock::new(ShardState {
                cascade_owed: tree.maintenance_pending(),
                tree,
                wal,
                write_holds: 0,
                write_yields: 0,
            }),
            group: Mutex::new(GroupState::default()),
            group_cv: Condvar::new(),
            writers: Mutex::new(()),
            waiting: AtomicUsize::new(0),
            computed: Mutex::new(None),
            begun_sync: Mutex::new(None),
            #[cfg(test)]
            longest_stretch: AtomicUsize::new(0),
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
        // A writer keeps the lock across its run, and the lock lets a
        // waiting writer in before a waiting reader: say that someone
        // waits, and writers let go at their next yield point.
        self.waiting.fetch_add(1, Ordering::SeqCst);
        let guard = self.state.read();
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        guard
    }

    /// The shard lock, exclusive, for a writer's run ([`Shard::apply`]),
    /// marked for the lock-order assertions as a section of kind `hold`:
    /// only the inline cascade and the checkpoint touch the device, and
    /// only the checkpoint fsyncs. A writer does not count as waiting: it
    /// waits out the run ahead of it (see `writers`).
    fn lock(&self, hold: Hold) -> (RwLockWriteGuard<'_, ShardState>, TreeLockGuard) {
        // Let whoever found the lock taken go first (see `waiting`): a
        // reader gets in as soon as no writer holds the lock or queues for
        // it. Bounded, so that they can delay a writer but never stop it.
        for _ in 0..READER_TURN_YIELDS {
            if self.waiting.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::yield_now();
        }
        let mut guard = self.state.write();
        guard.write_holds += 1;
        (guard, lockorder::tree_lock_held(hold))
    }

    /// The shard lock, exclusive, for everyone but a writer's run — a
    /// sync's first half, an install, a seal, a checkpoint: one that finds
    /// it taken counts itself in `waiting`, as a reader does, so a writer
    /// lets go at its next yield point instead of at the end of its run.
    fn lock_waiting(&self, hold: Hold) -> (RwLockWriteGuard<'_, ShardState>, TreeLockGuard) {
        let guard = self.state.try_write().unwrap_or_else(|| {
            self.waiting.fetch_add(1, Ordering::SeqCst);
            let guard = self.state.write();
            self.waiting.fetch_sub(1, Ordering::SeqCst);
            guard
        });
        (guard, lockorder::tree_lock_held(hold))
    }

    /// Whether the shard's tree accepts `req`: its payload size never changes,
    /// so no lock is needed to say.
    pub(crate) fn check(&self, req: &Request) -> Result<()> {
        tree::check_request(self.payload_size, req)
    }

    /// The write path of a run of requests (module docs draw it); a single
    /// put is a run of one. On a logged shard L0 takes views of the run's
    /// WAL frames and `run` is left as it was, to drop with the caller's
    /// batch after the lock and the rendezvous; an unlogged shard moves the
    /// requests out of `run`. `sched` is
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
    /// `lock_wait`, `backpressure_wait`, `wal_append`, `memtable_insert`,
    /// `cascade`, whatever `ack` opens; uncovered time is frame encoding.
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
        let hold = if background.is_none() { Hold::Io } else { Hold::NoIo };
        // A logged run's frames, one chunk per `MAX_REQUESTS_PER_HOLD`
        // requests counted from the run's start: L0 keeps views of them.
        let chunks: Vec<Bytes> = if self.logged {
            run.chunks(MAX_REQUESTS_PER_HOLD).map(WriteAheadLog::encode_chunk).collect()
        } else {
            Vec::new()
        };
        let mut durable_at = None;
        // The requests not yet applied, how many came before them, and
        // where their frames start in their chunk.
        let (mut rest, mut done, mut at) = (run, 0, 0);
        // A run that reaches a yield point queues behind the one ahead of
        // it here, outside the lock, so that a yield hands the lock to
        // whoever waits for it and not to the next writer (the lock wakes
        // a parked writer before a parked reader). A shorter run holds
        // the lock for a chunk at most, and a put pays for no mutex.
        let turn = (rest.len() > MAX_REQUESTS_PER_HOLD).then(|| {
            let _lock_wait = self.sink.span(SpanOp::lock_wait());
            self.writers.lock()
        });
        while !rest.is_empty() {
            let (mut sealed_backlog, mut stalled_at) = (None, None);
            {
                let (mut guard, _held) = {
                    let _lock_wait = self.sink.span(SpanOp::lock_wait());
                    self.lock(hold)
                };
                let ShardState { tree, wal, cascade_owed, write_yields, .. } = &mut *guard;
                // Requests to apply before the next yield point, which is
                // the next chunk's start: a hold that a seal or a stall
                // ended mid-chunk goes on in the same chunk.
                let mut to_yield = MAX_REQUESTS_PER_HOLD - done % MAX_REQUESTS_PER_HOLD;
                #[cfg(test)]
                let mut stretch = 0;
                while !rest.is_empty() {
                    if to_yield == 0 {
                        // A yield point: the lock goes to whoever waits for
                        // it, if anyone does, and this writer queues again.
                        #[cfg(test)]
                        {
                            self.longest_stretch.fetch_max(stretch, Ordering::Relaxed);
                            stretch = 0;
                        }
                        if self.waiting.load(Ordering::SeqCst) > 0 {
                            *write_yields += 1;
                            break;
                        }
                        to_yield = MAX_REQUESTS_PER_HOLD;
                    }
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
                    let n = room.clamp(1, rest.len().min(to_yield));
                    let segment;
                    (segment, rest) = rest.split_at_mut(n);
                    to_yield -= n;
                    #[cfg(test)]
                    {
                        stretch += n;
                    }
                    let first = done;
                    done += n;
                    match wal {
                        Some(wal) => {
                            // A chunk starts at every yield point, so the
                            // segment's frames lie in one.
                            let chunk = &chunks[first / MAX_REQUESTS_PER_HOLD];
                            if first.is_multiple_of(MAX_REQUESTS_PER_HOLD) {
                                at = 0;
                            }
                            let len: usize = segment.iter().map(WriteAheadLog::frame_len).sum();
                            let frames = at..at + len;
                            at += len;
                            durable_at =
                                Some(wal.log_run(segment, &chunk[frames.clone()], &self.sink)?);
                            let _insert = self.sink.span(SpanOp::memtable_insert());
                            tree.buffer_run(WriteAheadLog::view_frames(chunk, frames));
                        }
                        None => {
                            let _insert = self.sink.span(SpanOp::memtable_insert());
                            let moved = segment.iter_mut();
                            tree.buffer_run(
                                moved.map(|req| std::mem::replace(req, Request::Delete(0))),
                            );
                        }
                    }
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
                self.longest_stretch.fetch_max(stretch, Ordering::Relaxed);
            }
            // A hold ends at a yield, a seal or a stall, never two of them.
            if let (Some((s, _)), Some(backlog)) = (background, sealed_backlog.or(stalled_at)) {
                s.notify(self.idx, backlog);
            }
            if let (Some((s, _)), Some(_)) = (background, stalled_at) {
                let _stall = self.sink.span(SpanOp::backpressure_wait());
                s.wait_for_room(self.idx)?;
            }
        }
        drop(turn);
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
        self.lock_waiting(Hold::NoIo).0.tree.install(&mut outcome);
        outcome.release()
    }

    /// Seal the memtable if it is full, returning the backlog if it was. A
    /// put that fills the memtable while the backlog sits at the bound
    /// leaves it unsealed for the next put to stall on; `flush` must not
    /// leave it behind.
    pub(crate) fn seal_if_full(&self) -> Option<usize> {
        let (mut state, _held) = self.lock_waiting(Hold::NoIo);
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
    /// A follower stuck past the watchdog budget (a minute) means the
    /// rendezvous hung: it panics with `hang_dump()` rather than wait
    /// forever.
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
            let budget = scheduler::watchdog_timeout();
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

    /// First half of a sync of this shard's WAL (`None` without one): the
    /// only part that needs the shard lock, and short — flush the log's
    /// buffer, note its length.
    fn begin_sync(&self) -> Result<Option<PendingSync>> {
        self.lock_waiting(Hold::NoIo).0.wal.as_mut().map(WriteAheadLog::begin_sync).transpose()
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
        let (mut state, _held) = self.lock_waiting(Hold::Checkpoint);
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

    /// The most requests a writer has applied under the lock between two
    /// yield checks.
    #[cfg(test)]
    pub(crate) fn longest_stretch(&self) -> usize {
        self.longest_stretch.load(Ordering::Relaxed)
    }

    /// Write-path lock acquisitions, and the yields among their ends.
    pub(crate) fn write_holds(&self) -> (u64, u64) {
        let state = self.read();
        (state.write_holds, state.write_yields)
    }

    /// Arm fsync-fault injection on the WAL (no-op without one).
    pub(crate) fn set_wal_fault_plan(&self, plan: WalFaultPlan, seed: u64) {
        if let Some(wal) = self.lock_waiting(Hold::NoIo).0.wal.as_mut() {
            wal.set_fault_plan(plan, seed);
        }
    }

    /// This shard's entry of a report's `rendezvous` array.
    pub(crate) fn rendezvous_json(&self) -> Json {
        let (appended, synced) = self.wal(|w| (w.len_bytes(), w.synced_len())).unwrap_or_default();
        let (holds, yields) = self.write_holds();
        let s = self.group.lock();
        Json::obj([
            ("shard", Json::from(self.idx)),
            ("synced_seq", Json::from(s.synced_seq)),
            ("leader_running", Json::from(s.leader_running)),
            ("poisoned", Json::from(s.poisoned)),
            ("wal_appended", Json::from(appended)),
            ("wal_synced", Json::from(synced)),
            ("write_holds", Json::from(holds)),
            ("write_yields", Json::from(yields)),
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
