//! One shard: a tree and its optional write-ahead log behind one lock,
//! with the only copy of everything decided per shard — the write loop,
//! the group-commit rendezvous, and the maintenance step the scheduler
//! runs. [`crate::ShardedLsmTree`] is a router over a `Vec<Shard>`.
//!
//! The write path of one request ([`Shard::apply`]), lock regions drawn
//! once:
//!
//! ```text
//! put span ─┬─ admission ──── lock ─ full memtable and backlog at the bound? ─ unlock
//!           │   (background)          └ yes: notify, wait_for_room (no lock), retry
//!           ├─ under the lock ─ validate → WAL append (+fsync if PerRequest)
//!           │                   → memtable insert
//!           │                   → inline: cascade │ background: seal if room
//!           ├─ lock released ── notify the scheduler of a seal
//!           └─ ack ──────────── caller's step: group-commit wait, or defer it
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
//! The shard lock is taken for writing in three places: the write path,
//! the install, and the group-commit leader's fsync (`Shard::lead_sync`).
//! It is never held across a scheduler call or the rendezvous, and with a
//! background scheduler none of the three touches the device under it
//! (only the inline cascade does) — [`crate::lockorder`] asserts both in
//! debug builds. What a put or get can wait for is therefore one
//! install (a splice and a handful of map removals), not one merge.
//!
//! Block lifetime: gets and scans hold the read lock for as long as they
//! follow fences, so no reader outlives an install; the blocks an install
//! unlinked are freed right after it, through [`Store::free_block`].
//!
//! [`Store::free_block`]: crate::Store::free_block

use std::path::Path;
use std::sync::{Arc, Weak};
use std::time::Duration;

use observe::{Event, EventSink, Json, SinkHandle, SpanOp};
use parking_lot::{Condvar, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use sim_ssd::{BlockDevice, DeviceError};

use crate::config::{CommitMode, LsmConfig};
use crate::error::Result;
use crate::lockorder::{self, TreeLockGuard};
use crate::record::Request;
use crate::scheduler::{self, MaintainTarget, SchedulerBackend};
use crate::tree::{LsmTree, StepOutcome, TreeOptions};
use crate::wal::{WalFaultPlan, WriteAheadLog};

/// Forwards every event of one shard's tree to the user sink, tags every
/// span with the shard index, and follows each [`Event::MergeFinish`] with
/// a shard-tagged [`Event::ShardMergeFinish`].
struct ShardTagSink {
    shard: usize,
    inner: Arc<dyn EventSink>,
}

impl EventSink for ShardTagSink {
    fn emit(&self, event: &Event) {
        self.inner.emit(event);
        if let Event::MergeFinish { target_level, full, writes, .. } = *event {
            self.inner.emit(&Event::ShardMergeFinish {
                shard: self.shard,
                target_level,
                full,
                writes,
            });
        }
    }

    fn span_begin(&self, op: &SpanOp) -> Option<observe::SpanId> {
        self.inner.span_begin(&op.with_shard(self.shard))
    }

    fn span_end(&self, id: observe::SpanId, op: &SpanOp) {
        self.inner.span_end(id, &op.with_shard(self.shard));
    }

    fn flush(&self) {
        self.inner.flush();
    }
}

/// What the shard lock protects.
pub(crate) struct ShardState {
    pub(crate) tree: LsmTree,
    pub(crate) wal: Option<WriteAheadLog>,
}

/// Leader/follower group-commit state (only consulted under
/// [`CommitMode::Group`]). Writers append under the shard lock, release
/// it, then rendezvous here: the first waiter becomes the leader and
/// issues one fsync covering every append buffered so far; the rest ride
/// along on the leader's fsync.
#[derive(Default)]
struct GroupState {
    /// WAL byte offset known crash-durable.
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
    /// The shard's tagging sink (the tree reports through a clone of it),
    /// kept outside the lock so wait-state spans open without the tree.
    sink: SinkHandle,
    commit: CommitMode,
    /// A maintenance step between its halves: computed, not yet installed.
    /// The scheduler runs one maintainer per shard, so at most one.
    computed: Mutex<Option<StepOutcome>>,
}

impl Shard {
    /// Build shard `idx` over `device`; `opts.sink` is the user sink the
    /// shard's tagging sink forwards to.
    pub(crate) fn new(
        idx: usize,
        cfg: LsmConfig,
        mut opts: TreeOptions,
        device: Arc<dyn BlockDevice>,
        wal_path: Option<&Path>,
    ) -> Result<Self> {
        let sink = match opts.sink.as_arc() {
            Some(inner) => SinkHandle::of(ShardTagSink { shard: idx, inner }),
            None => SinkHandle::none(),
        };
        opts.sink = sink.clone();
        let commit = opts.commit;
        let tree = LsmTree::new(cfg, opts, device)?;
        let wal = wal_path.map(WriteAheadLog::create).transpose()?;
        Ok(Shard {
            idx,
            state: RwLock::new(ShardState { tree, wal }),
            group: Mutex::new(GroupState::default()),
            group_cv: Condvar::new(),
            sink,
            commit,
            computed: Mutex::new(None),
        })
    }

    /// Replay the intact prefix of the log at `path` into this (fresh)
    /// shard and adopt the log. Returns the number of requests replayed.
    pub(crate) fn recover(&self, path: &Path) -> Result<u64> {
        let (wal, requests) = WriteAheadLog::open_and_replay(path)?;
        let replayed = requests.len() as u64;
        let mut state = self.state.write();
        let span = self.sink.span(SpanOp::recovery());
        for req in requests {
            state.tree.apply(req)?;
        }
        drop(span);
        state.wal = Some(wal);
        Ok(replayed)
    }

    /// The shard lock, shared: lookups, scans, probes.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, ShardState> {
        self.state.read()
    }

    /// The shard lock, exclusive, marked for the lock-order assertions.
    /// `device_io` says whether the section may touch the device: only the
    /// inline cascade does.
    fn lock(&self, device_io: bool) -> (RwLockWriteGuard<'_, ShardState>, TreeLockGuard) {
        let guard = self.state.write();
        let held = match device_io {
            true => lockorder::tree_lock_held(),
            false => lockorder::tree_lock_held_no_io(),
        };
        (guard, held)
    }

    /// The write path (module docs draw it). `sched` is the background
    /// scheduler, if any: with one a full memtable is sealed and handed
    /// over instead of merged inline, and the writer stalls only while the
    /// sealed backlog sits at the bound. `ack` runs last, inside the put
    /// span and with the lock released, on the WAL offset the request must
    /// see durable before it may be acknowledged (`Some` only under
    /// [`CommitMode::Group`]): [`Shard::group_wait`] on it, or hand it
    /// back (`Ok`) to wait once per batch.
    ///
    /// The whole call is one root `put` span whose children partition it:
    /// `lock_wait`, `backpressure_wait`, `wal_append`, `cascade`, whatever
    /// `ack` opens; uncovered time is the memtable insert.
    pub(crate) fn apply<T>(
        &self,
        req: Request,
        sched: Option<&dyn SchedulerBackend>,
        ack: impl FnOnce(Option<u64>) -> Result<T>,
    ) -> Result<T> {
        let _put = self.sink.span(SpanOp::put());
        let background = sched.map(|s| (s, s.max_imm_memtables()));
        let admitted = loop {
            let held = {
                let _lock_wait = self.sink.span(SpanOp::lock_wait());
                self.lock(background.is_none())
            };
            let tree = &held.0.tree;
            let Some((s, max)) = background else { break held };
            let backlog = tree.imm_count();
            if !(tree.mem_at_capacity() && backlog >= max) {
                break held;
            }
            // The check held the lock, the wait must not: a stalled writer
            // may never block the worker that will unstall it.
            drop(held);
            s.notify(self.idx, backlog);
            let _stall = self.sink.span(SpanOp::backpressure_wait());
            s.wait_for_room(self.idx)?;
        };
        let (durable_at, sealed_backlog) = {
            let (mut guard, _held) = admitted;
            let ShardState { tree, wal } = &mut *guard;
            let durable_at = match wal {
                Some(wal) => {
                    // A request the tree refuses must not reach the log,
                    // or replay would refuse it too and abort recovery.
                    tree.check_request(&req)?;
                    let offset = wal.log_request(&req, self.commit, &self.sink)?;
                    (self.commit == CommitMode::Group).then_some(offset)
                }
                None => None,
            };
            tree.apply_buffered(req)?;
            let mut sealed_backlog = None;
            match background {
                None => tree.run_cascade()?,
                // Seal only while the immutable queue has room; otherwise
                // leave the memtable at capacity so the next write stalls
                // at admission — sealing past the bound would grow the
                // backlog without ever exerting backpressure.
                Some((_, max)) => {
                    if tree.mem_at_capacity() && tree.imm_count() < max {
                        tree.seal_memtable();
                        sealed_backlog = Some(tree.imm_count());
                    }
                }
            }
            (durable_at, sealed_backlog)
        };
        if let (Some((s, _)), Some(backlog)) = (background, sealed_backlog) {
            s.notify(self.idx, backlog);
        }
        ack(durable_at)
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
        self.lock(false).0.tree.install(&mut outcome);
        outcome.release()
    }

    /// Seal the memtable if it is full, returning the backlog if it was. A
    /// put that fills the memtable while the backlog sits at the bound
    /// leaves it unsealed for the next put to stall on; `flush` must not
    /// leave it behind.
    pub(crate) fn seal_if_full(&self) -> Option<usize> {
        let (mut state, _held) = self.lock(false);
        let tree = &mut state.tree;
        (tree.mem_at_capacity() && tree.seal_memtable()).then(|| tree.imm_count())
    }

    /// Wait until WAL offset `my_seq` is fsynced: become the leader (one
    /// fsync covers every append buffered so far) or ride on the current
    /// leader's fsync. Never called with the shard lock held.
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
                if self.lead_sync()? >= my_seq {
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

    /// The group-commit leader section: fsync the WAL under the shard
    /// lock, then publish the offset now durable and wake the followers —
    /// or poison the rendezvous, so every waiting (and future) follower
    /// errors instead of retrying leadership against a WAL that just
    /// poisoned itself.
    fn lead_sync(&self) -> Result<u64> {
        let res = match self.lock(false).0.wal.as_mut() {
            Some(wal) => wal.sync().map(|()| wal.synced_len()),
            // No WAL: nothing to make durable.
            None => Ok(u64::MAX),
        };
        let mut s = self.group.lock();
        s.leader_running = false;
        match &res {
            Ok(synced) => s.synced_seq = s.synced_seq.max(*synced),
            Err(_) => s.poisoned = true,
        }
        self.group_cv.notify_all();
        res
    }

    /// Act as the group-commit leader unconditionally (the torture
    /// harness's seeded sync step): returns the offset now durable.
    pub(crate) fn group_sync_step(&self) -> Result<u64> {
        if self.group.lock().poisoned {
            return Err(DeviceError::Poisoned.into());
        }
        self.lead_sync()
    }

    /// Read something off the WAL (`None` without one).
    pub(crate) fn wal<T>(&self, f: impl FnOnce(&WriteAheadLog) -> T) -> Option<T> {
        self.read().wal.as_ref().map(f)
    }

    /// Fsync the WAL (no-op without one).
    pub(crate) fn sync_wal(&self) -> Result<()> {
        self.lock(false).0.wal.as_mut().map_or(Ok(()), WriteAheadLog::sync)
    }

    /// Arm fsync-fault injection on the WAL (no-op without one).
    pub(crate) fn set_wal_fault_plan(&self, plan: WalFaultPlan, seed: u64) {
        if let Some(wal) = self.lock(false).0.wal.as_mut() {
            wal.set_fault_plan(plan, seed);
        }
    }

    /// This shard's entry of the post-mortem `rendezvous` array.
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
