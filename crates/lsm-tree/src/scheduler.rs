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
//!   and block in [`SchedulerBackend::wait_for_room`] (emitting
//!   [`Event::Backpressure`]) until a worker drains a memtable. The wait
//!   happens strictly *outside* the tree lock — a stalled writer never
//!   blocks the worker that will unstall it — and ends with the
//!   maintenance error if the step that would have made room failed.
//! * **Failed jobs**: a failed step installs nothing, so its work stays
//!   pending. The worker parks the error on that shard and stops; a writer
//!   stalled on the shard or the next [`SchedulerBackend::drain`] takes
//!   it. `drain` does not re-run a shard whose error nobody has taken, so
//!   it returns while a fault lasts instead of retrying until it clears.
//! * **Clean shutdown**: dropping the scheduler (or calling
//!   [`SchedulerBackend::drain`]) finishes every queued job before workers
//!   exit, so no sealed memtable is abandoned in memory.
//!
//! The scheduler never holds a tree lock and a scheduler lock at the same
//! time, and requires the same of its callers: wrappers notify/wait only
//! after releasing their shard lock. That single rule is the whole
//! deadlock-freedom argument.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use observe::{Event, Json, SinkHandle};
use parking_lot::{Condvar, Mutex};

use crate::config::BackgroundPolicy;
use crate::error::{LsmError, Result};
use crate::lockorder;

/// Watchdog budget for a hung [`SchedulerBackend::drain`] or group-commit
/// rendezvous, in milliseconds. When a wait exceeds it, the waiter panics
/// with the scheduler's job queue in the message (and, when
/// `LSM_WATCHDOG_BUNDLE_DIR` is set, in a post-mortem bundle) — a hang
/// becomes a loud, debuggable failure instead of a stuck process.
static WATCHDOG_MS: AtomicU64 = AtomicU64::new(60_000);

/// Override the hang watchdog (tests use tiny budgets; `0` disables it).
pub fn set_watchdog_timeout_ms(ms: u64) {
    WATCHDOG_MS.store(ms, Ordering::Relaxed);
}

/// The current hang-watchdog budget, if enabled.
pub fn watchdog_timeout() -> Option<Duration> {
    match WATCHDOG_MS.load(Ordering::Relaxed) {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    }
}

/// Convert a hung wait into a panic: writes a post-mortem bundle with the
/// scheduler section when `LSM_WATCHDOG_BUNDLE_DIR` is set, then panics
/// with the job-queue dump inline so the hang is diagnosable either way.
pub(crate) fn watchdog_fire(context: &str, scheduler_section: Json) -> ! {
    let rendered = scheduler_section.render();
    if let Ok(dir) = std::env::var("LSM_WATCHDOG_BUNDLE_DIR") {
        let path = std::path::Path::new(&dir).join("watchdog.postmortem.json");
        let pm = crate::postmortem::PostMortem::new(&format!("watchdog: {context}"))
            .error(&format!("{context} exceeded the hang watchdog"))
            .section("scheduler", scheduler_section);
        if pm.write_to(&path).is_ok() {
            panic!("watchdog: {context} hung (scheduler state in {}): {rendered}", path.display());
        }
    }
    panic!("watchdog: {context} hung; scheduler state: {rendered}");
}

/// A point-in-time dump of a scheduler's job queue — what the post-mortem
/// `scheduler` section and the watchdog panic message are built from.
/// Produced by [`SchedulerBackend::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerSnapshot {
    /// Shard ids queued for maintenance, in queue order (dedup'd).
    pub queued: Vec<usize>,
    /// Shards a worker is currently stepping (the in-flight jobs).
    pub running: Vec<usize>,
    /// Shards whose running worker will re-enqueue them on finish.
    pub requeue: Vec<usize>,
    /// Sealed-memtable backlog per shard.
    pub backlogs: Vec<usize>,
    /// The admission-control bound writers stall at.
    pub max_imm_memtables: usize,
    /// Worker threads (0 for the simulated executor).
    pub workers: usize,
    /// Whether shutdown has been requested.
    pub shutdown: bool,
    /// The first background maintenance error, if one is pending.
    pub pending_err: Option<String>,
    /// Interleaving steps executed so far (simulated executor only).
    pub sim_steps: Option<u64>,
}

impl SchedulerSnapshot {
    /// Render as the post-mortem `scheduler` section body.
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

/// The scheduling interface the concurrent front-end programs against.
/// Two implementations exist: [`MergeScheduler`] (a real worker pool,
/// production) and [`crate::sim::SimExecutor`] (a single-threaded,
/// seed-driven executor the concurrency-torture harness injects so every
/// interleaving replays exactly from its seed).
pub trait SchedulerBackend: Send + Sync {
    /// Register a maintenance target, returning its shard id.
    fn register(&self, target: Arc<dyn MaintainTarget>) -> usize;

    /// Record `shard`'s backlog and enqueue it (dedup'd) for maintenance.
    /// Callers must NOT hold the shard's tree lock.
    fn notify(&self, shard: usize, backlog: usize);

    /// Block (or, in the simulated executor, run maintenance steps) until
    /// `shard`'s backlog drops below the admission bound. Errors with
    /// [`LsmError::Shutdown`] instead of hanging when the scheduler shuts
    /// down while the backlog is still full, and with the maintenance
    /// error when the step that would have made room failed. Callers must
    /// NOT hold the shard's tree lock.
    fn wait_for_room(&self, shard: usize) -> Result<()>;

    /// Run every target to quiescence, or until the targets that are not
    /// quiescent are the ones whose maintenance failed; surfaces the first
    /// background maintenance error. Never retries a failed target itself.
    fn drain(&self) -> Result<()>;

    /// Take the first background maintenance error, if any.
    fn take_error(&self) -> Option<LsmError>;

    /// The admission-control bound (sealed memtables per shard).
    fn max_imm_memtables(&self) -> usize;

    /// Dump the job queue for post-mortems and watchdog panics.
    fn snapshot(&self) -> SchedulerSnapshot;
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

struct SchedState {
    /// Shard ids with queued work, FIFO.
    queue: VecDeque<usize>,
    /// Dedup bit: shard already sits in `queue`.
    queued: Vec<bool>,
    /// Token: a worker is currently stepping this shard.
    running: Vec<bool>,
    /// A notify arrived while the shard was running *and* a second worker
    /// saw it; the running worker re-enqueues on finish.
    requeue: Vec<bool>,
    /// Registered targets (they hold `Weak` tree refs, so no cycle).
    targets: Vec<Arc<dyn MaintainTarget>>,
    /// Sealed-memtable backlog per shard, mirrored here so backpressure
    /// waits never touch a tree lock while holding the scheduler lock.
    backlogs: Vec<Arc<AtomicUsize>>,
    /// Per shard, the first error of a failed job nobody has been told of
    /// yet. A writer stalled on the shard takes its own; `drain` takes
    /// them all. While one is parked `drain` does not re-run the shard.
    errs: Vec<Option<LsmError>>,
}

struct SchedInner {
    state: Mutex<SchedState>,
    /// Workers wait here for jobs.
    work_cv: Condvar,
    /// Backpressured writers wait here for a backlog slot.
    room_cv: Condvar,
    /// `drain` waits here for quiescence.
    idle_cv: Condvar,
    policy: BackgroundPolicy,
    sink: SinkHandle,
    shutdown: AtomicBool,
}

/// A worker pool that drains flush/merge maintenance jobs for one or more
/// shards. Created by the concurrent front-end when its trees are built
/// with [`Scheduler::Background`](crate::Scheduler); see the module docs
/// for the scheduling rules.
pub struct MergeScheduler {
    inner: Arc<SchedInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
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
    /// `observe::ExemplarSink` pairs the two into its `queue_delay`
    /// histogram.
    pub fn new(policy: BackgroundPolicy, sink: SinkHandle) -> Self {
        let inner = Arc::new(SchedInner {
            state: Mutex::new(SchedState {
                queue: VecDeque::new(),
                queued: Vec::new(),
                running: Vec::new(),
                requeue: Vec::new(),
                targets: Vec::new(),
                backlogs: Vec::new(),
                errs: Vec::new(),
            }),
            work_cv: Condvar::new(),
            room_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            policy,
            sink,
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..policy.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || Self::worker_loop(&inner))
            })
            .collect();
        MergeScheduler { inner, workers: Mutex::new(workers) }
    }

    /// The policy this scheduler runs under.
    pub fn policy(&self) -> BackgroundPolicy {
        self.inner.policy
    }

    fn worker_loop(inner: &Arc<SchedInner>) {
        loop {
            // Dequeue one shard (or exit once shut down with an empty
            // queue — shutdown drains, it does not abandon).
            let (shard, target, backlog_cell, depth) = {
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
                        let t = Arc::clone(&s.targets[shard]);
                        let b = Arc::clone(&s.backlogs[shard]);
                        break (shard, t, b, s.queue.len());
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
                        backlog_cell.store(target.backlog(), Ordering::Release);
                        // Wake backpressured writers after every step —
                        // the first drained memtable frees a slot.
                        let _s = inner.state.lock();
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
            backlog_cell.store(target.backlog(), Ordering::Release);
            let mut s = inner.state.lock();
            s.running[shard] = false;
            if s.requeue[shard] {
                s.requeue[shard] = false;
                if !s.queued[shard] {
                    s.queued[shard] = true;
                    s.queue.push_back(shard);
                    inner.work_cv.notify_one();
                }
            }
            inner.room_cv.notify_all();
            inner.idle_cv.notify_all();
        }
    }

    /// Finish every queued job, stop the workers, and join them; writers
    /// stalled at the backlog bound error out. Called by `Drop`;
    /// idempotent.
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
}

impl Drop for MergeScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl SchedulerBackend for MergeScheduler {
    fn register(&self, target: Arc<dyn MaintainTarget>) -> usize {
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
        s.backlogs.push(Arc::new(AtomicUsize::new(backlog)));
        s.errs.push(None);
        id
    }

    fn notify(&self, shard: usize, backlog: usize) {
        lockorder::assert_no_tree_lock("MergeScheduler::notify");
        let mut s = self.inner.state.lock();
        s.backlogs[shard].store(backlog, Ordering::Release);
        if !s.queued[shard] {
            s.queued[shard] = true;
            s.queue.push_back(shard);
            self.inner.work_cv.notify_one();
        }
    }

    /// Emits one [`Event::Backpressure`] per stall. The shard's tree lock
    /// is exactly what the draining worker needs, hence the caller rule.
    fn wait_for_room(&self, shard: usize) -> Result<()> {
        lockorder::assert_no_tree_lock("MergeScheduler::wait_for_room");
        let max = self.inner.policy.max_imm_memtables.max(1);
        let mut s = self.inner.state.lock();
        let backlog = s.backlogs[shard].load(Ordering::Acquire);
        if backlog < max {
            return Ok(());
        }
        self.inner.sink.emit_with(|| Event::Backpressure { shard, backlog });
        while s.backlogs[shard].load(Ordering::Acquire) >= max {
            if self.inner.shutdown.load(Ordering::Acquire) {
                return Err(LsmError::Shutdown(format!(
                    "writer stalled at backlog {} on shard {shard} while the \
                     merge scheduler shut down",
                    s.backlogs[shard].load(Ordering::Acquire)
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
                s.queued[shard] = true;
                s.queue.push_back(shard);
                self.inner.work_cv.notify_one();
            }
            s = self.inner.room_cv.wait(s);
        }
        Ok(())
    }

    /// Quiescent means no queued jobs, no running jobs, and nothing pending
    /// on any tree whose last job did not fail; a failed job's error is
    /// returned, with its work still pending, rather than retried here for
    /// as long as the fault lasts. Foreground writers should be paused
    /// while draining, or this may lawfully chase a moving target.
    ///
    /// A drain that makes no progress for the [`watchdog_timeout`] budget
    /// panics with the job-queue dump (see [`set_watchdog_timeout_ms`]) —
    /// the hung-rendezvous guardrail.
    fn drain(&self) -> Result<()> {
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
                if !s.queued[shard] && !s.running[shard] && s.errs[shard].is_none() {
                    s.queued[shard] = true;
                    s.queue.push_back(shard);
                    self.inner.work_cv.notify_one();
                }
            }
            let busy = !s.queue.is_empty() || s.running.iter().any(|&r| r);
            if !busy && pending.iter().all(|&shard| s.errs[shard].is_some()) {
                // Take every shard's error, report the first.
                let first = s.errs.iter_mut().filter_map(Option::take).reduce(|first, _| first);
                return first.map_or(Ok(()), Err);
            }
            match watchdog_timeout() {
                None => {
                    let _s = self.inner.idle_cv.wait(s);
                }
                Some(budget) => {
                    let slice = budget.min(Duration::from_millis(50)).max(Duration::from_millis(1));
                    let (s, res) = self.inner.idle_cv.wait_timeout(s, slice);
                    drop(s);
                    waited = if res.timed_out() { waited + slice } else { Duration::ZERO };
                    if waited >= budget {
                        watchdog_fire("MergeScheduler::drain", self.snapshot().to_json());
                    }
                }
            }
        }
    }

    fn take_error(&self) -> Option<LsmError> {
        lockorder::assert_no_tree_lock("MergeScheduler::take_error");
        self.inner.state.lock().errs.iter_mut().find_map(Option::take)
    }

    fn snapshot(&self) -> SchedulerSnapshot {
        lockorder::assert_no_tree_lock("MergeScheduler::snapshot");
        let s = self.inner.state.lock();
        SchedulerSnapshot {
            queued: s.queue.iter().copied().collect(),
            running: (0..s.running.len()).filter(|&i| s.running[i]).collect(),
            requeue: (0..s.requeue.len()).filter(|&i| s.requeue[i]).collect(),
            backlogs: s.backlogs.iter().map(|b| b.load(Ordering::Acquire)).collect(),
            max_imm_memtables: self.inner.policy.max_imm_memtables.max(1),
            workers: self.inner.policy.workers.max(1),
            shutdown: self.inner.shutdown.load(Ordering::Acquire),
            pending_err: s.errs.iter().flatten().next().map(ToString::to_string),
            sim_steps: None,
        }
    }

    fn max_imm_memtables(&self) -> usize {
        self.inner.policy.max_imm_memtables.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A target with `n` units of fake work, counting steps.
    struct FakeTarget {
        work: AtomicU64,
        steps: AtomicU64,
        backlog: AtomicUsize,
    }

    impl FakeTarget {
        fn with_work(n: u64, backlog: usize) -> Arc<Self> {
            Arc::new(FakeTarget {
                work: AtomicU64::new(n),
                steps: AtomicU64::new(0),
                backlog: AtomicUsize::new(backlog),
            })
        }
    }

    impl MaintainTarget for FakeTarget {
        fn install(&self) -> Result<()> {
            Ok(())
        }
        fn compute(&self) -> Result<bool> {
            self.steps.fetch_add(1, Ordering::SeqCst);
            let prev = self
                .work
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |w| Some(w.saturating_sub(1)));
            let did = prev.unwrap() > 0;
            if did && self.work.load(Ordering::SeqCst) == 0 {
                self.backlog.store(0, Ordering::SeqCst);
            }
            Ok(did)
        }
        fn backlog(&self) -> usize {
            self.backlog.load(Ordering::SeqCst)
        }
        fn has_pending(&self) -> bool {
            self.work.load(Ordering::SeqCst) > 0
        }
    }

    #[test]
    fn drain_finishes_all_queued_work() {
        let sched = MergeScheduler::new(
            BackgroundPolicy { workers: 3, max_imm_memtables: 4 },
            SinkHandle::none(),
        );
        let targets: Vec<_> = (0..5).map(|_| FakeTarget::with_work(20, 1)).collect();
        for t in &targets {
            let id = sched.register(Arc::clone(t) as Arc<dyn MaintainTarget>);
            sched.notify(id, 1);
        }
        sched.drain().unwrap();
        for t in &targets {
            assert!(!t.has_pending(), "drain left work behind");
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

    /// One unit of work behind a gate: the worker blocks mid-job until the
    /// test opens it, giving deterministic stall/release ordering.
    struct GatedTarget {
        open: Mutex<bool>,
        gate_cv: parking_lot::Condvar,
        work: AtomicU64,
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

    #[test]
    fn backpressure_blocks_then_releases_when_backlog_drops() {
        let sched = Arc::new(MergeScheduler::new(
            BackgroundPolicy { workers: 1, max_imm_memtables: 2 },
            SinkHandle::none(),
        ));
        let t = Arc::new(GatedTarget {
            open: Mutex::new(false),
            gate_cv: parking_lot::Condvar::new(),
            work: AtomicU64::new(3), // backlog 3 ≥ bound 2
        });
        let id = sched.register(Arc::clone(&t) as Arc<dyn MaintainTarget>);
        sched.notify(id, 3); // records the backlog; worker blocks on the gate
        let released = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (sched, released) = (Arc::clone(&sched), Arc::clone(&released));
            std::thread::spawn(move || {
                sched.wait_for_room(id).unwrap();
                released.store(true, Ordering::SeqCst);
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!released.load(Ordering::SeqCst), "writer must stall at the backlog bound");
        *t.open.lock() = true; // let the worker drain
        t.gate_cv.notify_all();
        waiter.join().unwrap();
        assert!(released.load(Ordering::SeqCst));
        assert!(t.backlog() < 2);
    }

    /// A writer can record a backlog the worker has already drained (it
    /// read the count, then lost the CPU before `notify`). The dry job its
    /// notify starts must leave the true backlog behind, or the writer
    /// waits for room that is already there.
    #[test]
    fn a_stale_backlog_report_does_not_strand_the_writer() {
        let sched = MergeScheduler::new(
            BackgroundPolicy { workers: 1, max_imm_memtables: 2 },
            SinkHandle::none(),
        );
        let t = FakeTarget::with_work(0, 0);
        let id = sched.register(Arc::clone(&t) as Arc<dyn MaintainTarget>);
        sched.notify(id, 3);
        sched.wait_for_room(id).unwrap();
        assert_eq!(sched.snapshot().backlogs, vec![0]);
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
        let sched = MergeScheduler::new(
            BackgroundPolicy { workers: 1, max_imm_memtables: 2 },
            SinkHandle::none(),
        );
        let id = sched.register(Arc::new(Failing));
        sched.notify(id, 2);
        let err = sched.wait_for_room(id).unwrap_err();
        assert!(matches!(err, LsmError::Invariant(_)), "{err}");
    }

    /// Fails every compute while `broken`, then has one unit of work.
    struct Flaky {
        broken: AtomicBool,
        work: AtomicU64,
        computes: AtomicU64,
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
        let sched = MergeScheduler::new(
            BackgroundPolicy { workers: 2, max_imm_memtables: 2 },
            SinkHandle::none(),
        );
        let t = Arc::new(Flaky {
            broken: AtomicBool::new(true),
            work: AtomicU64::new(1),
            computes: AtomicU64::new(0),
        });
        let id = sched.register(Arc::clone(&t) as Arc<dyn MaintainTarget>);
        sched.notify(id, 1);
        for attempt in 1..=3 {
            let err = sched.drain().unwrap_err();
            assert!(matches!(err, LsmError::Invariant(_)), "{err}");
            // One job per drain (the first drain may find the notify's job
            // already failed and run none).
            assert!(t.computes.load(Ordering::SeqCst) <= attempt, "drain {attempt} spun");
        }
        assert!(t.has_pending());
        t.broken.store(false, Ordering::SeqCst);
        sched.drain().unwrap();
        assert!(!t.has_pending(), "the work survives the failures and is done after them");
        assert_eq!(sched.snapshot().pending_err, None);
    }

    /// Errors are kept per shard: a writer stalled on one shard is not
    /// handed (and does not consume) another shard's failure.
    #[test]
    fn a_stalled_writer_does_not_take_another_shards_error() {
        let sched = Arc::new(MergeScheduler::new(
            BackgroundPolicy { workers: 2, max_imm_memtables: 2 },
            SinkHandle::none(),
        ));
        let bad = Arc::new(Flaky {
            broken: AtomicBool::new(true),
            work: AtomicU64::new(1),
            computes: AtomicU64::new(0),
        });
        let gated = Arc::new(GatedTarget {
            open: Mutex::new(false),
            gate_cv: parking_lot::Condvar::new(),
            work: AtomicU64::new(3), // backlog 3 ≥ bound 2
        });
        let bad_id = sched.register(Arc::clone(&bad) as Arc<dyn MaintainTarget>);
        let gated_id = sched.register(Arc::clone(&gated) as Arc<dyn MaintainTarget>);
        sched.notify(bad_id, 1);
        while bad.computes.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        sched.notify(gated_id, 3);
        let waiter = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || sched.wait_for_room(gated_id))
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!waiter.is_finished(), "the writer must still be waiting for its own shard");
        *gated.open.lock() = true;
        gated.gate_cv.notify_all();
        waiter.join().unwrap().expect("the gated shard's job succeeds");
        let err = sched.drain().unwrap_err();
        assert!(matches!(err, LsmError::Invariant(_)), "{err}");
    }

    /// Satellite contract: a writer stalled at the backlog bound while the
    /// scheduler shuts down must error out, never hang. The gated target
    /// never opens, so the backlog can only drop via... nothing — shutdown
    /// is the writer's only way out.
    #[test]
    fn shutdown_errors_backpressured_writers_instead_of_hanging() {
        let sched = Arc::new(MergeScheduler::new(
            BackgroundPolicy { workers: 1, max_imm_memtables: 2 },
            SinkHandle::none(),
        ));
        let t = Arc::new(GatedTarget {
            open: Mutex::new(false),
            gate_cv: parking_lot::Condvar::new(),
            work: AtomicU64::new(3),
        });
        let id = sched.register(Arc::clone(&t) as Arc<dyn MaintainTarget>);
        sched.notify(id, 3); // backlog 3 ≥ bound 2; worker blocks on the gate
        let waiter = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || sched.wait_for_room(id))
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!waiter.is_finished(), "writer must be stalled before shutdown");
        // Open the gate so shutdown's drain can finish, then shut down:
        // the stalled writer must return promptly with Shutdown.
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
        *t.open.lock() = true; // unblock the worker so Drop can join it
        t.gate_cv.notify_all();
    }

    #[test]
    fn snapshot_reports_queue_and_backlogs() {
        let sched = MergeScheduler::new(
            BackgroundPolicy { workers: 1, max_imm_memtables: 3 },
            SinkHandle::none(),
        );
        let t = Arc::new(GatedTarget {
            open: Mutex::new(false),
            gate_cv: parking_lot::Condvar::new(),
            work: AtomicU64::new(2),
        });
        let id = sched.register(Arc::clone(&t) as Arc<dyn MaintainTarget>);
        sched.notify(id, 2);
        // Give the worker a moment to pick the job up (it blocks mid-step).
        std::thread::sleep(std::time::Duration::from_millis(30));
        let snap = sched.snapshot();
        assert_eq!(snap.backlogs, vec![2]);
        assert_eq!(snap.max_imm_memtables, 3);
        assert_eq!(snap.workers, 1);
        assert!(!snap.shutdown);
        assert_eq!(snap.running, vec![id], "the gated job must show as in flight");
        assert_eq!(snap.sim_steps, None);
        // The JSON section carries every key the bundle validator checks.
        let Json::Obj(pairs) = snap.to_json() else { panic!("snapshot not an object") };
        for key in ["queued", "running", "backlogs", "max_imm_memtables", "shutdown"] {
            assert!(pairs.iter().any(|(k, _)| k == key), "snapshot JSON missing {key}");
        }
        *t.open.lock() = true;
        t.gate_cv.notify_all();
        sched.drain().unwrap();
    }

    /// The drain watchdog turns a hang into a panic that names the
    /// scheduler state. The gated worker never finishes its job, so drain
    /// can never complete; with a tiny budget the panic must fire fast.
    #[test]
    fn drain_watchdog_panics_on_a_hung_job() {
        let sched = Arc::new(MergeScheduler::new(
            BackgroundPolicy { workers: 1, max_imm_memtables: 2 },
            SinkHandle::none(),
        ));
        let t = Arc::new(GatedTarget {
            open: Mutex::new(false),
            gate_cv: parking_lot::Condvar::new(),
            work: AtomicU64::new(1),
        });
        let id = sched.register(Arc::clone(&t) as Arc<dyn MaintainTarget>);
        sched.notify(id, 1);
        set_watchdog_timeout_ms(100);
        let caught = {
            let sched = Arc::clone(&sched);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || sched.drain()))
        };
        set_watchdog_timeout_ms(60_000);
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
        // Unblock the worker and leak the scheduler: Drop would join the
        // worker thread, which is only now finishing.
        *t.open.lock() = true;
        t.gate_cv.notify_all();
        sched.drain().unwrap();
    }

    #[test]
    fn dedup_keeps_one_queue_entry_per_shard() {
        let sched = MergeScheduler::new(
            BackgroundPolicy { workers: 1, max_imm_memtables: 4 },
            SinkHandle::none(),
        );
        let t = FakeTarget::with_work(5, 1);
        let id = sched.register(Arc::clone(&t) as Arc<dyn MaintainTarget>);
        for _ in 0..100 {
            sched.notify(id, 1);
        }
        sched.drain().unwrap();
        // 5 productive steps + a bounded number of empty probes — far
        // fewer than the 100 notifies if dedup works.
        assert!(t.steps.load(Ordering::SeqCst) < 20);
    }
}
