//! Background merge scheduler: flush/merge maintenance as worker-pool jobs.
//!
//! The paper's partial, block-preserving merges make each maintenance step
//! cheap (Theorem 2 bounds a `ChooseBest` merge at δ(1/Γ+1)·K_i blocks);
//! this module is what makes that cheapness visible in foreground tail
//! latency instead of only in write amplification. With
//! [`Scheduler::Background`](crate::Scheduler) a `put` that fills the
//! memtable *seals* it — swaps in a fresh one and queues the immutable one
//! — and returns; the actual flush and any cascade of level merges run
//! here, one bounded step at a time, each in two halves
//! ([`MaintainTarget`]): the step is **computed** against a snapshot with
//! the tree lock released — every device read and write happens there —
//! and then **installed** under the lock, in memory only. What a request
//! can wait for is one install, not one step: puts and gets run beside a
//! merge, not between merges.
//!
//! Mechanics:
//!
//! * **Jobs** are shard ids. A shard appears in the queue at most once
//!   (dedup bit) and is worked by at most one worker at a time (running
//!   token). One maintainer per shard is also what lets a step skip
//!   re-validation at install: nothing else changes the levels or drains
//!   the oldest sealed memtable while it computes. It yields the per-level
//!   merge exclusivity the scheduler promises, too: at most one merge per
//!   (shard, level) is ever in flight.
//! * **Admission control**: writers that find the sealed-memtable backlog
//!   at [`BackgroundPolicy::max_imm_memtables`] release their shard lock
//!   and block in [`MergeScheduler::wait_for_room`] (emitting one
//!   [`Event::Backpressure`] per stall) until a worker drains a memtable.
//!   The wait happens strictly *outside* the tree lock — a stalled writer
//!   never blocks the worker that will unstall it — and ends with the
//!   maintenance error if the step that would have made room failed.
//! * **Failed jobs**: a failed step installs nothing, so its work stays
//!   pending. Its error is parked on its own shard, which is not stepped
//!   again until a writer notifies it; a writer stalled on that shard or
//!   the next [`MergeScheduler::drain`] takes the error, never a writer
//!   stalled on another shard. `drain` does not re-run a shard whose error
//!   nobody has taken, so it returns while a fault lasts instead of
//!   retrying until it clears.
//! * **Clean shutdown**: dropping a worker pool (or calling
//!   [`MergeScheduler::drain`]) finishes every queued job before workers
//!   exit, so no sealed memtable is abandoned in memory.
//!
//! **Two drivers.** [`MergeScheduler::new`] runs the queue on worker
//! threads, so a concurrency bug it exposes depends on kernel scheduling:
//! rerun the workload and the interleaving, and the failure, are gone.
//! [`MergeScheduler::simulated`] is the same scheduler without a thread.
//! Nothing runs until someone calls [`MergeScheduler::step`], and each
//! step performs one *half* of a bounded step — the unlocked compute, or
//! the install — on a shard a seeded RNG picks from the queue; `running`
//! then marks a shard whose step is computed and not yet installed. A
//! stalled writer and `drain` run steps inline instead of waiting, since
//! there is no other thread to run them. The crash-torture cycle
//! ([`crate::torture::run_crash_cycle`]) interleaves these steps with
//! seeded writes, reads, checkpoints, group-commit syncs (in halves as
//! well: note the log's length, then fsync and publish it) and injected
//! faults. So whatever a worker's unlocked compute can overlap with lands
//! between a compute and its install, whatever a leader's unlocked fsync
//! can overlap with lands between a sync's halves, and every interleaving,
//! the failing ones included, replays byte for byte from one `u64` seed.
//! Which shard steps next and when maintenance meets the writers are the
//! degrees of freedom a pool has; the stepped driver explores them from a
//! seed instead of leaving them to the kernel. Everything else — the
//! queue, the dedup bits, the backlogs, the parked errors and the rules
//! above — the two drivers share.
//!
//! The scheduler never holds a tree lock and a scheduler lock at the same
//! time, and requires the same of its callers: wrappers notify/wait only
//! after releasing their shard lock. That single rule is the whole
//! deadlock-freedom argument.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use observe::{Event, Json, SinkHandle};
use parking_lot::{Condvar, Mutex};
use sim_ssd::SplitMix64;

use crate::config::BackgroundPolicy;
use crate::error::{LsmError, Result};
use crate::lockorder;

/// Watchdog budget for a hung [`MergeScheduler::drain`] or group-commit
/// rendezvous. When a wait makes no progress for this long, the waiter
/// panics with the scheduler's job queue in the message — a hang becomes a
/// loud, debuggable failure instead of a stuck process.
const WATCHDOG: Duration = Duration::from_secs(60);

#[cfg(test)]
std::thread_local! {
    /// A test's own budget, read only by the waits of the thread that set
    /// it: the crate's other tests run on threads of their own meanwhile.
    static THREAD_WATCHDOG: std::cell::Cell<Option<Duration>> = const { std::cell::Cell::new(None) };
}

/// The hang-watchdog budget of the calling thread's waits.
pub(crate) fn watchdog_timeout() -> Duration {
    #[cfg(test)]
    if let Some(budget) = THREAD_WATCHDOG.with(std::cell::Cell::get) {
        return budget;
    }
    WATCHDOG
}

/// Convert a hung wait into a panic with the job-queue dump inline.
pub(crate) fn watchdog_fire(context: &str, scheduler_section: Json) -> ! {
    panic!("watchdog: {context} hung; scheduler state: {}", scheduler_section.render());
}

/// A point-in-time dump of a scheduler's job queue — what a report's
/// `scheduler` section and the watchdog panic message are built from.
/// Produced by [`MergeScheduler::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerSnapshot {
    /// Shard ids queued for maintenance, in queue order (dedup'd).
    pub queued: Vec<usize>,
    /// Shards a worker is currently stepping (the in-flight jobs); under
    /// the stepped driver, shards whose step is computed, not installed.
    pub running: Vec<usize>,
    /// Shards whose running worker will re-enqueue them on finish.
    pub requeue: Vec<usize>,
    /// Sealed-memtable backlog per shard.
    pub backlogs: Vec<usize>,
    /// The admission-control bound writers stall at.
    pub max_imm_memtables: usize,
    /// Worker threads (0 for the stepped driver).
    pub workers: usize,
    /// Whether shutdown has been requested.
    pub shutdown: bool,
    /// The first background maintenance error, if one is pending.
    pub pending_err: Option<String>,
    /// Half-steps run so far (stepped driver only).
    pub sim_steps: Option<u64>,
}

impl SchedulerSnapshot {
    /// Render as a report's `scheduler` section body.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("queued", Json::arr(self.queued.iter().map(|&s| Json::from(s)))),
            ("running", Json::arr(self.running.iter().map(|&s| Json::from(s)))),
            ("requeue", Json::arr(self.requeue.iter().map(|&s| Json::from(s)))),
            ("backlogs", Json::arr(self.backlogs.iter().map(|&b| Json::from(b)))),
            ("max_imm_memtables", Json::from(self.max_imm_memtables)),
            ("workers", Json::from(self.workers)),
            ("shutdown", Json::from(self.shutdown)),
            ("pending_err", self.pending_err.as_deref().map(Json::from).unwrap_or(Json::Null)),
            ("sim_steps", self.sim_steps.map(Json::from).unwrap_or(Json::Null)),
        ])
    }
}

/// Something the scheduler can run maintenance on — one shard's tree
/// behind its own lock. Implementations hold a [`std::sync::Weak`]
/// reference to the tree so a scheduler outliving its trees degrades to a
/// no-op instead of keeping them alive.
pub trait MaintainTarget: Send + Sync {
    /// First half of **one** bounded maintenance step (flush one
    /// sealed-memtable window, or one level merge): snapshot the tree,
    /// then do all the step's device reads and writes with the tree lock
    /// released. Returns whether there was work; if so the outcome stays
    /// with the target until [`install`](MaintainTarget::install). A
    /// target computes one step at a time.
    fn compute(&self) -> Result<bool>;

    /// Second half: put the computed step into the tree under its lock
    /// (memory only), then free the blocks it replaced. Does nothing when
    /// nothing was computed. A computed step that is never installed —
    /// shutdown, crash — gives back the blocks it wrote when the target
    /// drops it.
    fn install(&self) -> Result<()>;

    /// Both halves back to back — what a worker thread runs. Returns
    /// whether any work was done.
    fn maintenance_step(&self) -> Result<bool> {
        if !self.compute()? {
            return Ok(false);
        }
        self.install()?;
        Ok(true)
    }

    /// Sealed memtables currently queued on the tree (the backpressure
    /// signal).
    fn backlog(&self) -> usize;

    /// Whether any maintenance is pending (sealed memtables or
    /// overflowing levels).
    fn has_pending(&self) -> bool;
}

#[derive(Default)]
struct SchedState {
    /// Shard ids with queued work, FIFO (the stepped driver picks any).
    queue: VecDeque<usize>,
    /// Dedup bit: shard already sits in `queue`.
    queued: Vec<bool>,
    /// Token: a worker is currently stepping this shard. Under the stepped
    /// driver: the shard's step is computed and awaits its install.
    running: Vec<bool>,
    /// A notify arrived while the shard was running *and* a second worker
    /// saw it; the running worker re-enqueues on finish.
    requeue: Vec<bool>,
    /// Registered targets (they hold `Weak` tree refs, so no cycle).
    targets: Vec<Arc<dyn MaintainTarget>>,
    /// Sealed-memtable backlog per shard, as last reported or probed,
    /// mirrored here so backpressure waits never touch a tree lock while
    /// holding the scheduler lock.
    backlogs: Vec<usize>,
    /// Per shard, the first error of a failed job nobody has been told of
    /// yet. A writer stalled on the shard takes its own; `drain` takes
    /// them all. While one is parked `drain` does not re-run the shard.
    errs: Vec<Option<LsmError>>,
    /// Half-steps the stepped driver has run, productive or not.
    steps: u64,
}

struct SchedInner {
    state: Mutex<SchedState>,
    /// Workers wait here for jobs.
    work_cv: Condvar,
    /// Backpressured writers wait here for a backlog slot.
    room_cv: Condvar,
    /// `drain` waits here for quiescence.
    idle_cv: Condvar,
    /// Worker threads (0: the stepped driver) and the backlog bound.
    policy: BackgroundPolicy,
    sink: SinkHandle,
    shutdown: AtomicBool,
}

impl SchedInner {
    /// Queue `shard` unless it is queued already, and wake a worker.
    fn enqueue(&self, s: &mut SchedState, shard: usize) {
        if !s.queued[shard] {
            s.queued[shard] = true;
            s.queue.push_back(shard);
            self.work_cv.notify_one();
        }
    }
}

/// The merge scheduler of one or more shards: one queue and one error
/// state, driven by a worker pool ([`MergeScheduler::new`], what the
/// concurrent front-end builds for
/// [`Scheduler::Background`](crate::Scheduler)) or stepped by its caller
/// ([`MergeScheduler::simulated`]). See the module docs for the rules.
pub struct MergeScheduler {
    inner: Arc<SchedInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// The stepped driver's seeded pick; `None` for a worker pool.
    pick: Option<Mutex<SplitMix64>>,
}

impl MergeScheduler {
    /// Spawn `policy.workers` (at least one) maintenance workers.
    /// Scheduler events ([`Event::JobStart`], [`Event::Backpressure`])
    /// flow to `sink`.
    ///
    /// Queue delay is derivable from the event stream without a dedicated
    /// span: a front-end's [`Event::FlushEnqueued`] marks a sealed
    /// memtable entering the queue, and the matching [`Event::JobStart`]
    /// (FIFO per shard) marks a worker picking the shard up —
    /// `observe::HealthSink` pairs the two into the tail report's
    /// `queue_delay` histogram.
    pub fn new(policy: BackgroundPolicy, sink: SinkHandle) -> Self {
        let workers = policy.workers.max(1);
        let sched = Self::unstarted(workers, policy.max_imm_memtables, sink, None);
        *sched.workers.lock() = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&sched.inner);
                std::thread::spawn(move || Self::worker_loop(&inner))
            })
            .collect();
        sched
    }

    /// The stepped driver: no thread, and every scheduling choice drawn
    /// from `seed` (module docs). `max_imm_memtables` is the
    /// admission-control bound, as in [`BackgroundPolicy`]. Inject it with
    /// [`ShardedLsmTree::with_backend`](crate::ShardedLsmTree::with_backend).
    pub fn simulated(max_imm_memtables: usize, seed: u64, sink: SinkHandle) -> Self {
        let pick = SplitMix64::new(seed ^ 0x51ED_EC07_5EED_C0DE);
        Self::unstarted(0, max_imm_memtables, sink, Some(pick))
    }

    fn unstarted(
        workers: usize,
        max_imm: usize,
        sink: SinkHandle,
        pick: Option<SplitMix64>,
    ) -> Self {
        let policy = BackgroundPolicy { workers, max_imm_memtables: max_imm.max(1) };
        let inner = Arc::new(SchedInner {
            state: Mutex::new(SchedState::default()),
            work_cv: Condvar::new(),
            room_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            policy,
            sink,
            shutdown: AtomicBool::new(false),
        });
        MergeScheduler { inner, workers: Mutex::new(Vec::new()), pick: pick.map(Mutex::new) }
    }

    fn worker_loop(inner: &Arc<SchedInner>) {
        loop {
            // Dequeue one shard (or exit once shut down with an empty
            // queue — shutdown drains, it does not abandon).
            let (shard, target, depth) = {
                let mut s = inner.state.lock();
                loop {
                    if let Some(shard) = s.queue.pop_front() {
                        s.queued[shard] = false;
                        if s.running[shard] {
                            // Another worker is on this shard; have it
                            // re-enqueue when it finishes.
                            s.requeue[shard] = true;
                            continue;
                        }
                        s.running[shard] = true;
                        break (shard, Arc::clone(&s.targets[shard]), s.queue.len());
                    }
                    if inner.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    s = inner.work_cv.wait(s);
                }
            };
            inner.sink.emit_with(|| Event::JobStart { shard, queued: depth });
            // Step until dry. A step holds the tree lock only to install
            // its result, so requests run beside it.
            loop {
                match target.maintenance_step() {
                    Ok(true) => {
                        let backlog = target.backlog();
                        // Wake backpressured writers after every step —
                        // the first drained memtable frees a slot.
                        inner.state.lock().backlogs[shard] = backlog;
                        inner.room_cv.notify_all();
                    }
                    Ok(false) => break,
                    Err(e) => {
                        inner.state.lock().errs[shard].get_or_insert(e);
                        break;
                    }
                }
            }
            // A writer's `notify` may have recorded a backlog this job
            // found already drained: leave the true one behind, or that
            // writer waits for room that is there.
            let backlog = target.backlog();
            let mut s = inner.state.lock();
            s.backlogs[shard] = backlog;
            s.running[shard] = false;
            if std::mem::take(&mut s.requeue[shard]) {
                inner.enqueue(&mut s, shard);
            }
            inner.room_cv.notify_all();
            inner.idle_cv.notify_all();
        }
    }

    /// The stepped driver's clock: pick a seeded shard off the queue, run
    /// one half of a bounded step on it — the install if its step is
    /// computed, a compute otherwise — and re-enqueue it while it has
    /// work. A failed half parks its error on the shard, as a worker's
    /// does. Returns whether the half did work: `false` when the queue was
    /// empty, the picked shard was dry or failed, or workers run the
    /// queue.
    pub fn step(&self) -> bool {
        lockorder::assert_no_tree_lock("MergeScheduler::step");
        let Some(pick) = &self.pick else { return false };
        let (shard, target, install) = {
            let mut s = self.inner.state.lock();
            s.steps += 1;
            if s.queue.is_empty() {
                return false;
            }
            let at = pick.lock().gen_range(s.queue.len() as u64) as usize;
            let Some(shard) = s.queue.remove(at) else { return false };
            s.queued[shard] = false;
            let depth = s.queue.len();
            self.inner.sink.emit_with(|| Event::JobStart { shard, queued: depth });
            (shard, Arc::clone(&s.targets[shard]), s.running[shard])
        };
        // Tree work happens strictly outside the scheduler lock, as a
        // worker's does.
        let done = if install { target.install().map(|()| true) } else { target.compute() };
        let (backlog, pending) = (target.backlog(), target.has_pending());
        let mut s = self.inner.state.lock();
        s.backlogs[shard] = backlog;
        s.running[shard] = !install && matches!(done, Ok(true));
        match done {
            Ok(did) => {
                if pending || s.running[shard] {
                    self.inner.enqueue(&mut s, shard);
                }
                did
            }
            Err(e) => {
                s.errs[shard].get_or_insert(e);
                false
            }
        }
    }

    /// Stop: writers stalled at the backlog bound error out, and the
    /// workers finish every queued job, exit and are joined. The stepped
    /// driver has no workers: what it has queued stays queued, and a
    /// computed step dies with its shard. Called by `Drop`; idempotent.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let _s = self.inner.state.lock();
            self.inner.work_cv.notify_all();
            self.inner.room_cv.notify_all();
        }
        let workers = std::mem::take(&mut *self.workers.lock());
        for w in workers {
            let _ = w.join();
        }
    }

    /// Register a maintenance target, returning its shard id.
    pub fn register(&self, target: Arc<dyn MaintainTarget>) -> usize {
        // Probe before taking the state lock (lock-order rule), so
        // `wait_for_room` is honest from the moment of registration.
        let backlog = target.backlog();
        lockorder::assert_no_tree_lock("MergeScheduler::register");
        let mut s = self.inner.state.lock();
        let id = s.targets.len();
        s.targets.push(target);
        s.queued.push(false);
        s.running.push(false);
        s.requeue.push(false);
        s.backlogs.push(backlog);
        s.errs.push(None);
        id
    }

    /// Record `shard`'s backlog and enqueue it (dedup'd) for maintenance.
    /// Callers must NOT hold the shard's tree lock.
    pub fn notify(&self, shard: usize, backlog: usize) {
        lockorder::assert_no_tree_lock("MergeScheduler::notify");
        let mut s = self.inner.state.lock();
        s.backlogs[shard] = backlog;
        self.inner.enqueue(&mut s, shard);
    }

    /// Wait until `shard`'s backlog drops below the admission bound:
    /// blocked until a worker makes room, or, under the stepped driver,
    /// running steps inline. Emits one [`Event::Backpressure`] per stall.
    /// Errors with [`LsmError::Shutdown`] instead of hanging when the
    /// scheduler shuts down while the backlog is still full, and with
    /// this shard's maintenance error when the step that would have made
    /// room failed. Callers must NOT hold the shard's tree lock — it is
    /// exactly what the draining step needs.
    pub fn wait_for_room(&self, shard: usize) -> Result<()> {
        lockorder::assert_no_tree_lock("MergeScheduler::wait_for_room");
        let max = self.max_imm_memtables();
        let mut s = self.inner.state.lock();
        let backlog = s.backlogs[shard];
        if backlog < max {
            return Ok(());
        }
        self.inner.sink.emit_with(|| Event::Backpressure { shard, backlog });
        while s.backlogs[shard] >= max {
            if self.inner.shutdown.load(Ordering::Acquire) {
                return Err(LsmError::Shutdown(format!(
                    "writer stalled at backlog {} on shard {shard} while the \
                     merge scheduler shut down",
                    s.backlogs[shard]
                )));
            }
            // Nobody is working on the shard although its backlog is full:
            // the job that would have made room failed. The writer takes
            // this shard's error (its retry re-enqueues the shard); if a
            // `drain` already took it, re-enqueue here rather than wait
            // forever.
            if !s.queued[shard] && !s.running[shard] {
                if let Some(e) = s.errs[shard].take() {
                    return Err(e);
                }
                self.inner.enqueue(&mut s, shard);
            }
            if self.pick.is_none() {
                s = self.inner.room_cv.wait(s);
                continue;
            }
            // Stepped: the stalled writer *becomes* the worker.
            drop(s);
            if !self.step() {
                self.reprobe(shard)?;
            }
            s = self.inner.state.lock();
        }
        Ok(())
    }

    /// A stepped stall found nothing to run: re-probe `shard`'s backlog
    /// (the mirror can lag), and give up loudly rather than spin if it is
    /// at the bound with no maintenance pending.
    fn reprobe(&self, shard: usize) -> Result<()> {
        let target = Arc::clone(&self.inner.state.lock().targets[shard]);
        let (backlog, pending) = (target.backlog(), target.has_pending());
        self.inner.state.lock().backlogs[shard] = backlog;
        if backlog >= self.max_imm_memtables() && !pending {
            return Err(LsmError::Invariant(format!(
                "shard {shard} backlog {backlog} at the bound with no pending \
                 maintenance — backpressure can never release"
            )));
        }
        Ok(())
    }

    /// Run every target to quiescence, or until the targets that are not
    /// quiescent are the ones whose maintenance failed: no queued jobs, no
    /// running ones, and nothing pending on any tree whose last job did
    /// not fail. Takes every parked error and returns the first, with its
    /// work still pending, rather than retrying it here for as long as the
    /// fault lasts. Foreground writers should be paused while draining, or
    /// this may lawfully chase a moving target.
    ///
    /// A worker pool's drain that makes no progress for a minute panics
    /// with the job-queue dump — the hung-rendezvous guardrail. The stepped
    /// driver runs the steps itself.
    pub fn drain(&self) -> Result<()> {
        lockorder::assert_no_tree_lock("MergeScheduler::drain");
        let mut waited = Duration::ZERO;
        loop {
            let targets: Vec<(usize, Arc<dyn MaintainTarget>)> = {
                let s = self.inner.state.lock();
                s.targets.iter().cloned().enumerate().collect()
            };
            // Probe trees outside the scheduler lock (lock-order rule).
            let pending: Vec<usize> =
                targets.iter().filter(|(_, t)| t.has_pending()).map(|(i, _)| *i).collect();
            let mut s = self.inner.state.lock();
            for &shard in &pending {
                // A shard whose job failed is not run again from here: its
                // work stays pending and its error is this drain's result
                // (the caller's next drain retries it).
                if !s.running[shard] && s.errs[shard].is_none() {
                    self.inner.enqueue(&mut s, shard);
                }
            }
            let busy = !s.queue.is_empty() || s.running.contains(&true);
            if !busy && pending.iter().all(|&shard| s.errs[shard].is_some()) {
                // Take every shard's error, report the first.
                let first = s.errs.iter_mut().filter_map(Option::take).reduce(|first, _| first);
                return first.map_or(Ok(()), Err);
            }
            if self.pick.is_some() {
                drop(s);
                self.step();
                continue;
            }
            let budget = watchdog_timeout();
            let slice = budget.min(Duration::from_millis(50)).max(Duration::from_millis(1));
            let (s, res) = self.inner.idle_cv.wait_timeout(s, slice);
            drop(s);
            waited = if res.timed_out() { waited + slice } else { Duration::ZERO };
            if waited >= budget {
                watchdog_fire("MergeScheduler::drain", self.snapshot().to_json());
            }
        }
    }

    /// The admission-control bound (sealed memtables per shard).
    pub fn max_imm_memtables(&self) -> usize {
        self.inner.policy.max_imm_memtables
    }

    /// Dump the job queue for reports and watchdog panics.
    pub fn snapshot(&self) -> SchedulerSnapshot {
        lockorder::assert_no_tree_lock("MergeScheduler::snapshot");
        let s = self.inner.state.lock();
        let marked =
            |bits: &[bool]| -> Vec<usize> { (0..bits.len()).filter(|&i| bits[i]).collect() };
        SchedulerSnapshot {
            queued: s.queue.iter().copied().collect(),
            running: marked(&s.running),
            requeue: marked(&s.requeue),
            backlogs: s.backlogs.clone(),
            max_imm_memtables: self.max_imm_memtables(),
            workers: self.inner.policy.workers,
            shutdown: self.inner.shutdown.load(Ordering::Acquire),
            pending_err: s.errs.iter().flatten().next().map(ToString::to_string),
            sim_steps: self.pick.as_ref().map(|_| s.steps),
        }
    }
}

impl Drop for MergeScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize};

    use observe::VecSink;

    /// The worker pool with `workers` threads, or the stepped driver.
    fn driver(
        stepped: bool,
        workers: usize,
        max_imm: usize,
        sink: SinkHandle,
    ) -> Arc<MergeScheduler> {
        Arc::new(match stepped {
            true => MergeScheduler::simulated(max_imm, 7, sink),
            false => {
                MergeScheduler::new(BackgroundPolicy { workers, max_imm_memtables: max_imm }, sink)
            }
        })
    }

    /// A target with `n` units of fake work: a compute finds one, its
    /// install does it, and the backlog empties with the last. Counts
    /// computes.
    struct FakeTarget {
        work: AtomicU64,
        computes: AtomicU64,
        backlog: AtomicUsize,
    }

    impl FakeTarget {
        fn with_work(n: u64, backlog: usize) -> Arc<Self> {
            Arc::new(FakeTarget {
                work: AtomicU64::new(n),
                computes: AtomicU64::new(0),
                backlog: AtomicUsize::new(backlog),
            })
        }
    }

    impl MaintainTarget for FakeTarget {
        fn compute(&self) -> Result<bool> {
            self.computes.fetch_add(1, Ordering::SeqCst);
            Ok(self.work.load(Ordering::SeqCst) > 0)
        }
        fn install(&self) -> Result<()> {
            let prev = self
                .work
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |w| Some(w.saturating_sub(1)))
                .unwrap();
            if prev <= 1 {
                self.backlog.store(0, Ordering::SeqCst);
            }
            Ok(())
        }
        fn backlog(&self) -> usize {
            self.backlog.load(Ordering::SeqCst)
        }
        fn has_pending(&self) -> bool {
            self.work.load(Ordering::SeqCst) > 0
        }
    }

    /// Units of work behind a gate (the backlog is the work left): a
    /// worker blocks mid-job until the test opens it, giving deterministic
    /// stall/release ordering.
    struct GatedTarget {
        open: Mutex<bool>,
        gate_cv: Condvar,
        work: AtomicU64,
    }

    impl GatedTarget {
        fn new(work: u64) -> Arc<Self> {
            Arc::new(GatedTarget {
                open: Mutex::new(false),
                gate_cv: Condvar::new(),
                work: AtomicU64::new(work),
            })
        }

        fn open(&self) {
            *self.open.lock() = true;
            self.gate_cv.notify_all();
        }
    }

    impl MaintainTarget for GatedTarget {
        fn install(&self) -> Result<()> {
            Ok(())
        }
        fn compute(&self) -> Result<bool> {
            let mut open = self.open.lock();
            while !*open {
                open = self.gate_cv.wait(open);
            }
            Ok(self
                .work
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |w| Some(w.saturating_sub(1)))
                .unwrap()
                > 0)
        }
        fn backlog(&self) -> usize {
            self.work.load(Ordering::SeqCst) as usize
        }
        fn has_pending(&self) -> bool {
            self.work.load(Ordering::SeqCst) > 0
        }
    }

    fn stalls(events: &VecSink) -> usize {
        events.events().iter().filter(|e| matches!(e, Event::Backpressure { .. })).count()
    }

    /// A writer stalls on `id`, whose job `gate` holds back: on a thread
    /// under the pool, seen to stall (its event in `events`) and still
    /// waiting before the gate opens; inline under the stepped driver,
    /// which runs the steps itself.
    fn stall_on(
        sched: &Arc<MergeScheduler>,
        id: usize,
        gate: &GatedTarget,
        events: &VecSink,
    ) -> Result<()> {
        if sched.snapshot().sim_steps.is_some() {
            gate.open();
            return sched.wait_for_room(id);
        }
        let waiter = {
            let sched = Arc::clone(sched);
            std::thread::spawn(move || sched.wait_for_room(id))
        };
        while stalls(events) == 0 {
            std::thread::yield_now();
        }
        assert!(!waiter.is_finished(), "the writer must wait at the backlog bound");
        gate.open();
        waiter.join().unwrap()
    }

    #[test]
    fn drain_finishes_all_queued_work() {
        for stepped in [false, true] {
            let sched = driver(stepped, 3, 4, SinkHandle::none());
            let targets: Vec<_> = (0..5).map(|_| FakeTarget::with_work(20, 1)).collect();
            for t in &targets {
                let id = sched.register(Arc::clone(t) as Arc<dyn MaintainTarget>);
                sched.notify(id, 1);
            }
            sched.drain().unwrap();
            for t in &targets {
                assert!(!t.has_pending(), "stepped {stepped}: drain left work behind");
            }
        }
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let sched = MergeScheduler::new(
            BackgroundPolicy { workers: 2, max_imm_memtables: 4 },
            SinkHandle::none(),
        );
        let t = FakeTarget::with_work(50, 2);
        let id = sched.register(Arc::clone(&t) as Arc<dyn MaintainTarget>);
        sched.notify(id, 2);
        drop(sched); // clean shutdown must finish the queued job
        assert!(!t.has_pending(), "shutdown abandoned queued work");
    }

    #[test]
    fn nothing_runs_until_stepped() {
        let sim = MergeScheduler::simulated(4, 1, SinkHandle::none());
        let t = FakeTarget::with_work(3, 1);
        let id = sim.register(Arc::clone(&t) as Arc<dyn MaintainTarget>);
        sim.notify(id, 1);
        assert!(t.has_pending(), "registration and notify must not run work");
        assert!(sim.step());
        assert_eq!(t.work.load(Ordering::SeqCst), 3, "a compute installs nothing");
        assert!(sim.step());
        assert_eq!(t.work.load(Ordering::SeqCst), 2, "two steps — two halves — one unit");
    }

    #[test]
    fn same_seed_same_step_order() {
        let order = |seed: u64| {
            let sim = MergeScheduler::simulated(4, seed, SinkHandle::none());
            let targets: Vec<_> = (0..4).map(|_| FakeTarget::with_work(3, 1)).collect();
            for t in &targets {
                let id = sim.register(Arc::clone(t) as Arc<dyn MaintainTarget>);
                sim.notify(id, 1);
            }
            let mut trace = Vec::new();
            while sim.step() {
                trace.push(
                    targets.iter().map(|t| t.work.load(Ordering::SeqCst)).collect::<Vec<_>>(),
                );
            }
            trace
        };
        assert_eq!(order(42), order(42), "same seed must replay the same order");
        assert_ne!(order(42), order(43), "different seeds should explore different orders");
    }

    /// A stall that takes several steps to clear (two computes here, and
    /// under the stepped driver an install between them) is one stall: one
    /// event. The writer goes on once the backlog is under the bound.
    #[test]
    fn one_stall_emits_one_backpressure_event() {
        for stepped in [false, true] {
            let events = Arc::new(VecSink::new());
            let sched = driver(stepped, 1, 2, SinkHandle::new(Arc::clone(&events) as _));
            let t = GatedTarget::new(3); // backlog 3 ≥ bound 2
            let id = sched.register(Arc::clone(&t) as Arc<dyn MaintainTarget>);
            sched.notify(id, 3);
            stall_on(&sched, id, &t, &events).unwrap();
            assert!(t.backlog() < 2, "stepped {stepped}: released before the backlog dropped");
            assert_eq!(stalls(&events), 1, "stepped {stepped}: one stall, one event");
        }
    }

    /// A writer can record a backlog the worker has already drained (it
    /// read the count, then lost the CPU before `notify`). The dry job its
    /// notify starts must leave the true backlog behind, or the writer
    /// waits for room that is already there.
    #[test]
    fn a_stale_backlog_report_does_not_strand_the_writer() {
        for stepped in [false, true] {
            let sched = driver(stepped, 1, 2, SinkHandle::none());
            let t = FakeTarget::with_work(0, 0);
            let id = sched.register(Arc::clone(&t) as Arc<dyn MaintainTarget>);
            sched.notify(id, 3);
            sched.wait_for_room(id).unwrap();
            assert_eq!(sched.snapshot().backlogs, vec![0], "stepped {stepped}");
        }
    }

    /// A writer waiting for room learns that the step that would have made
    /// it failed: it gets that error instead of waiting on an idle queue.
    #[test]
    fn a_failed_job_hands_its_error_to_the_stalled_writer() {
        struct Failing;
        impl MaintainTarget for Failing {
            fn compute(&self) -> Result<bool> {
                Err(LsmError::Invariant("injected".into()))
            }
            fn install(&self) -> Result<()> {
                Ok(())
            }
            fn backlog(&self) -> usize {
                2
            }
            fn has_pending(&self) -> bool {
                true
            }
        }
        for stepped in [false, true] {
            let sched = driver(stepped, 1, 2, SinkHandle::none());
            let id = sched.register(Arc::new(Failing));
            sched.notify(id, 2);
            let err = sched.wait_for_room(id).unwrap_err();
            assert!(matches!(err, LsmError::Invariant(_)), "stepped {stepped}: {err}");
        }
    }

    /// Fails every compute while `broken`, then has one unit of work.
    struct Flaky {
        broken: AtomicBool,
        work: AtomicU64,
        computes: AtomicU64,
    }

    impl Flaky {
        fn broken() -> Arc<Self> {
            Arc::new(Flaky {
                broken: AtomicBool::new(true),
                work: AtomicU64::new(1),
                computes: AtomicU64::new(0),
            })
        }
    }

    impl MaintainTarget for Flaky {
        fn compute(&self) -> Result<bool> {
            self.computes.fetch_add(1, Ordering::SeqCst);
            if self.broken.load(Ordering::SeqCst) {
                return Err(LsmError::Invariant("injected".into()));
            }
            Ok(self.work.swap(0, Ordering::SeqCst) > 0)
        }
        fn install(&self) -> Result<()> {
            Ok(())
        }
        fn backlog(&self) -> usize {
            self.work.load(Ordering::SeqCst) as usize
        }
        fn has_pending(&self) -> bool {
            self.work.load(Ordering::SeqCst) > 0
        }
    }

    /// A failed job installs nothing, so its work stays pending. `drain`
    /// must return the error instead of re-running the job for as long as
    /// the fault lasts, and must finish the work once it has cleared.
    #[test]
    fn drain_returns_a_persistent_failure_and_recovers_when_it_clears() {
        for stepped in [false, true] {
            let sched = driver(stepped, 2, 2, SinkHandle::none());
            let t = Flaky::broken();
            let id = sched.register(Arc::clone(&t) as Arc<dyn MaintainTarget>);
            sched.notify(id, 1);
            for attempt in 1..=3 {
                let err = sched.drain().unwrap_err();
                assert!(matches!(err, LsmError::Invariant(_)), "{err}");
                // One job per drain (the first drain may find the notify's
                // job already failed and run none).
                let computes = t.computes.load(Ordering::SeqCst);
                assert!(computes <= attempt, "stepped {stepped}: drain {attempt} spun");
            }
            assert!(t.has_pending());
            t.broken.store(false, Ordering::SeqCst);
            sched.drain().unwrap();
            assert!(!t.has_pending(), "the work survives the failures and is done after them");
            assert_eq!(sched.snapshot().pending_err, None);
        }
    }

    /// Errors are kept per shard: a writer stalled on one shard is not
    /// handed (and does not consume) another shard's failure — not even
    /// when, under the stepped driver, the failing step is one the stalled
    /// writer ran itself.
    #[test]
    fn a_stalled_writer_does_not_take_another_shards_error() {
        for stepped in [false, true] {
            let events = Arc::new(VecSink::new());
            let sched = driver(stepped, 2, 2, SinkHandle::new(Arc::clone(&events) as _));
            let bad = Flaky::broken();
            // Backlog 6 ≥ bound 2: five steps to clear, time for the stepped
            // driver's picks to fall on the broken shard too.
            let gated = GatedTarget::new(6);
            let bad_id = sched.register(Arc::clone(&bad) as Arc<dyn MaintainTarget>);
            let gated_id = sched.register(Arc::clone(&gated) as Arc<dyn MaintainTarget>);
            sched.notify(bad_id, 1);
            while !stepped && bad.computes.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            sched.notify(gated_id, 6);
            stall_on(&sched, gated_id, &gated, &events).expect("the gated shard's job succeeds");
            assert!(bad.computes.load(Ordering::SeqCst) > 0, "stepped {stepped}: never failed");
            let err = sched.drain().unwrap_err();
            assert!(matches!(err, LsmError::Invariant(_)), "{err}");
        }
    }

    /// A writer that stalls after shutdown errors out, whichever driver.
    /// The target never drains its backlog, so a worker pool's shutdown
    /// has nothing to finish.
    #[test]
    fn shutdown_errors_a_stalled_writer() {
        for stepped in [false, true] {
            let sched = driver(stepped, 1, 2, SinkHandle::none());
            let t = FakeTarget::with_work(0, 3);
            let id = sched.register(Arc::clone(&t) as Arc<dyn MaintainTarget>);
            sched.notify(id, 3);
            sched.shutdown();
            let res = sched.wait_for_room(id);
            assert!(matches!(res, Err(LsmError::Shutdown(_))), "stepped {stepped}: {res:?}");
        }
    }

    /// A writer already stalled at the backlog bound when a worker pool
    /// shuts down must error out, never hang. The gated target never
    /// opens, so the backlog can only drop via... nothing — shutdown is
    /// the writer's only way out.
    #[test]
    fn shutdown_errors_backpressured_writers_instead_of_hanging() {
        let sched = driver(false, 1, 2, SinkHandle::none());
        let t = GatedTarget::new(3);
        let id = sched.register(Arc::clone(&t) as Arc<dyn MaintainTarget>);
        sched.notify(id, 3); // backlog 3 ≥ bound 2; worker blocks on the gate
        let waiter = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || sched.wait_for_room(id))
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(!waiter.is_finished(), "writer must be stalled before shutdown");
        // Shut down without joining the gated worker: the stalled writer
        // must return promptly with Shutdown.
        sched.inner.shutdown.store(true, Ordering::Release);
        {
            let _s = sched.inner.state.lock();
            sched.inner.room_cv.notify_all();
        }
        let res = waiter.join().unwrap();
        assert!(
            matches!(res, Err(LsmError::Shutdown(_))),
            "stalled writer must surface Shutdown, got {res:?}"
        );
        t.open(); // unblock the worker so Drop can join it
    }

    #[test]
    fn snapshot_reports_queue_and_backlogs() {
        for stepped in [false, true] {
            let sched = driver(stepped, 1, 3, SinkHandle::none());
            let t = GatedTarget::new(2);
            let id = sched.register(Arc::clone(&t) as Arc<dyn MaintainTarget>);
            sched.notify(id, 2);
            if stepped {
                t.open();
                assert!(sched.step(), "the step computes");
            } else {
                // Give the worker a moment to pick the job up (it blocks
                // mid-step).
                std::thread::sleep(Duration::from_millis(30));
            }
            let snap = sched.snapshot();
            assert_eq!(snap.backlogs, vec![t.backlog()]);
            assert_eq!(snap.max_imm_memtables, 3);
            assert_eq!(snap.workers, usize::from(!stepped));
            assert!(!snap.shutdown);
            assert_eq!(snap.running, vec![id], "the job must show as in flight");
            assert_eq!(snap.sim_steps, stepped.then_some(1));
            // The JSON section carries every key the report validator checks.
            let Json::Obj(pairs) = snap.to_json() else { panic!("snapshot not an object") };
            for key in ["queued", "running", "backlogs", "max_imm_memtables", "shutdown"] {
                assert!(pairs.iter().any(|(k, _)| k == key), "snapshot JSON missing {key}");
            }
            t.open();
            sched.drain().unwrap();
        }
    }

    /// The drain watchdog turns a hang into a panic that names the
    /// scheduler state. The gated worker never finishes its job, so drain
    /// can never complete; with a tiny budget the panic must fire fast.
    #[test]
    fn drain_watchdog_panics_on_a_hung_job() {
        let sched = driver(false, 1, 2, SinkHandle::none());
        let t = GatedTarget::new(1);
        let id = sched.register(Arc::clone(&t) as Arc<dyn MaintainTarget>);
        sched.notify(id, 1);
        // This thread's budget only: the drain runs on it.
        THREAD_WATCHDOG.with(|budget| budget.set(Some(Duration::from_millis(100))));
        let caught = {
            let sched = Arc::clone(&sched);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || sched.drain()))
        };
        THREAD_WATCHDOG.with(|budget| budget.set(None));
        let msg = match caught {
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
                .unwrap_or_default(),
            Ok(r) => panic!("drain must not return from a hung job, got {r:?}"),
        };
        assert!(msg.contains("watchdog"), "panic names the watchdog: {msg}");
        assert!(msg.contains("running"), "panic dumps the job queue: {msg}");
        // Unblock the worker and finish the job.
        t.open();
        sched.drain().unwrap();
    }

    #[test]
    fn dedup_keeps_one_queue_entry_per_shard() {
        for stepped in [false, true] {
            let sched = driver(stepped, 1, 4, SinkHandle::none());
            let t = FakeTarget::with_work(5, 1);
            let id = sched.register(Arc::clone(&t) as Arc<dyn MaintainTarget>);
            for _ in 0..100 {
                sched.notify(id, 1);
            }
            sched.drain().unwrap();
            // 5 productive steps + a bounded number of empty probes — far
            // fewer than the 100 notifies if dedup works.
            assert!(t.computes.load(Ordering::SeqCst) < 20, "stepped {stepped}");
        }
    }
}
