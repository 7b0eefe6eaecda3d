//! Simulated merge scheduler: the worker pool, minus the threads.
//!
//! The real [`MergeScheduler`](crate::MergeScheduler) runs maintenance on
//! OS threads, so a concurrency bug it exposes depends on kernel
//! scheduling — rerunning the same workload hits a different interleaving
//! and the failure evaporates. [`SimExecutor`] is the same
//! [`SchedulerBackend`] contract implemented as an *explicitly stepped*
//! executor: nothing runs until someone calls [`SimExecutor::step`], and
//! each step performs exactly one *half* of a bounded maintenance step —
//! the unlocked compute, or the install — on a shard chosen by a seeded
//! RNG from the queue. The crash-torture cycle
//! ([`crate::torture::run_crash_cycle`]) interleaves these steps with
//! seeded writer operations, reads, checkpoints, group-commit fsyncs — in
//! halves as well: note the log's length, then fsync and publish it — and
//! injected faults. So whatever a real worker's unlocked compute can
//! overlap with lands between a compute and its install here too,
//! whatever a leader's unlocked fsync can overlap with lands between a
//! sync's halves, and
//! every interleaving, including the failing ones, replays byte-for-byte
//! from a single `u64` seed.
//!
//! The executor is single-threaded by design: "worker threads" are just
//! step invocations, and backpressure ([`SimExecutor::wait_for_room`])
//! runs maintenance steps inline instead of blocking, because there is no
//! other thread to run them. The scheduling *decisions* (which shard
//! steps next, when maintenance interleaves with writers) are exactly the
//! degrees of freedom a real pool has — the sim explores them
//! deterministically instead of leaving them to the kernel.

use std::collections::VecDeque;
use std::sync::Arc;

use observe::{Event, SinkHandle};
use parking_lot::Mutex;
use sim_ssd::SplitMix64;

use crate::error::{LsmError, Result};
use crate::lockorder;
use crate::scheduler::{MaintainTarget, SchedulerBackend, SchedulerSnapshot};

struct SimState {
    /// Shard ids with queued work, FIFO order (the seeded step picks an
    /// arbitrary element, so order only affects the candidate set).
    queue: VecDeque<usize>,
    /// Dedup bit per shard, mirroring the real scheduler.
    queued: Vec<bool>,
    /// Per shard: a step has been computed and awaits its install.
    computed: Vec<bool>,
    targets: Vec<Arc<dyn MaintainTarget>>,
    /// Sealed-memtable backlog per shard, as last reported/probed.
    backlogs: Vec<usize>,
    shutdown: bool,
    /// Interleaving steps executed (productive or not) — the sim clock.
    steps: u64,
}

/// A deterministic, explicitly stepped [`SchedulerBackend`]. See the
/// module docs; inject via
/// [`ShardedLsmTree::with_backend`](crate::ShardedLsmTree::with_backend).
pub struct SimExecutor {
    state: Mutex<SimState>,
    rng: Mutex<SplitMix64>,
    max_imm_memtables: usize,
    sink: SinkHandle,
}

impl SimExecutor {
    /// A stepped executor whose scheduling choices derive from `seed`.
    /// `max_imm_memtables` is the admission-control bound, as in
    /// [`BackgroundPolicy`](crate::BackgroundPolicy).
    pub fn new(max_imm_memtables: usize, seed: u64, sink: SinkHandle) -> Self {
        SimExecutor {
            state: Mutex::new(SimState {
                queue: VecDeque::new(),
                queued: Vec::new(),
                computed: Vec::new(),
                targets: Vec::new(),
                backlogs: Vec::new(),
                shutdown: false,
                steps: 0,
            }),
            rng: Mutex::new(SplitMix64::new(seed ^ 0x51ED_EC07_5EED_C0DE)),
            max_imm_memtables: max_imm_memtables.max(1),
            sink,
        }
    }

    /// Run one scheduling step: pick a seeded shard off the queue, run one
    /// half of a bounded maintenance step on it — the install if the
    /// shard has a computed step waiting, a compute otherwise — and
    /// re-enqueue it if it still has pending work. Returns whether the
    /// step did any work (`Ok(false)` when the queue was empty or the
    /// chosen shard turned out dry).
    pub fn step(&self) -> Result<bool> {
        lockorder::assert_no_tree_lock("SimExecutor::step");
        let (shard, target, install) = {
            let mut s = self.state.lock();
            s.steps += 1;
            if s.queue.is_empty() {
                return Ok(false);
            }
            let pick = self.rng.lock().gen_range(s.queue.len() as u64) as usize;
            let shard = s.queue.remove(pick).expect("pick < queue len");
            s.queued[shard] = false;
            let depth = s.queue.len();
            self.sink.emit_with(|| Event::JobStart { shard, queued: depth });
            let install = std::mem::take(&mut s.computed[shard]);
            (shard, Arc::clone(&s.targets[shard]), install)
        };
        // Tree work happens strictly outside the scheduler state lock —
        // the same lock-order rule the real worker pool lives by.
        let did = if install {
            target.install()?;
            true
        } else {
            target.compute()?
        };
        let backlog = target.backlog();
        let pending = target.has_pending();
        let mut s = self.state.lock();
        s.computed[shard] = did && !install;
        s.backlogs[shard] = backlog;
        if pending && !s.queued[shard] {
            s.queued[shard] = true;
            s.queue.push_back(shard);
        }
        Ok(did)
    }

    /// Request shutdown: writers stalled at the admission bound will error
    /// with [`LsmError::Shutdown`] instead of stepping maintenance.
    pub fn request_shutdown(&self) {
        self.state.lock().shutdown = true;
    }

    /// Interleaving steps executed so far.
    pub fn steps_taken(&self) -> u64 {
        self.state.lock().steps
    }

    /// Shards whose step is computed and not yet installed — whatever runs
    /// now runs in the window a real worker's unlocked compute leaves open.
    pub fn awaiting_install(&self) -> usize {
        self.state.lock().computed.iter().filter(|&&c| c).count()
    }
}

impl SchedulerBackend for SimExecutor {
    fn register(&self, target: Arc<dyn MaintainTarget>) -> usize {
        let backlog = target.backlog();
        lockorder::assert_no_tree_lock("SimExecutor::register");
        let mut s = self.state.lock();
        let id = s.targets.len();
        s.targets.push(target);
        s.queued.push(false);
        s.computed.push(false);
        s.backlogs.push(backlog);
        id
    }

    fn notify(&self, shard: usize, backlog: usize) {
        lockorder::assert_no_tree_lock("SimExecutor::notify");
        let mut s = self.state.lock();
        s.backlogs[shard] = backlog;
        if !s.queued[shard] {
            s.queued[shard] = true;
            s.queue.push_back(shard);
        }
    }

    /// Inline backpressure: there is no worker thread to wait on, so the
    /// "stalled writer" *becomes* the worker, running seeded steps until
    /// the shard's backlog drops below the bound. Deterministic, and it
    /// preserves the real scheduler's contract — including erroring with
    /// [`LsmError::Shutdown`] instead of spinning forever once shutdown is
    /// requested.
    fn wait_for_room(&self, shard: usize) -> Result<()> {
        lockorder::assert_no_tree_lock("SimExecutor::wait_for_room");
        loop {
            {
                let mut s = self.state.lock();
                let backlog = s.backlogs[shard];
                if backlog < self.max_imm_memtables {
                    return Ok(());
                }
                if s.shutdown {
                    return Err(LsmError::Shutdown(format!(
                        "writer stalled at backlog {backlog} on shard {shard} while the \
                         simulated executor shut down"
                    )));
                }
                self.sink.emit_with(|| Event::Backpressure { shard, backlog });
                if !s.queued[shard] {
                    s.queued[shard] = true;
                    s.queue.push_back(shard);
                }
            }
            if !self.step()? {
                // Queue empty (or a dry pick) yet the backlog is still at
                // the bound: re-probe the tree — the mirror can lag — and
                // give up loudly rather than spin if it really is stuck.
                let target = {
                    let s = self.state.lock();
                    Arc::clone(&s.targets[shard])
                };
                let backlog = target.backlog();
                let mut s = self.state.lock();
                s.backlogs[shard] = backlog;
                if backlog >= self.max_imm_memtables && !target.has_pending() {
                    return Err(LsmError::Invariant(format!(
                        "shard {shard} backlog {backlog} at the bound with no \
                         pending maintenance — backpressure can never release"
                    )));
                }
            }
        }
    }

    fn drain(&self) -> Result<()> {
        lockorder::assert_no_tree_lock("SimExecutor::drain");
        loop {
            let targets: Vec<(usize, Arc<dyn MaintainTarget>)> = {
                let s = self.state.lock();
                s.targets.iter().cloned().enumerate().collect()
            };
            let pending: Vec<usize> =
                targets.iter().filter(|(_, t)| t.has_pending()).map(|(i, _)| *i).collect();
            {
                let mut s = self.state.lock();
                for &shard in &pending {
                    if !s.queued[shard] {
                        s.queued[shard] = true;
                        s.queue.push_back(shard);
                    }
                }
                if s.queue.is_empty() && pending.is_empty() {
                    return Ok(());
                }
            }
            self.step()?;
        }
    }

    fn take_error(&self) -> Option<LsmError> {
        // Sim maintenance errors surface synchronously from `step` (there
        // is no background thread to park them on), so nothing pends here.
        None
    }

    fn max_imm_memtables(&self) -> usize {
        self.max_imm_memtables
    }

    fn snapshot(&self) -> SchedulerSnapshot {
        lockorder::assert_no_tree_lock("SimExecutor::snapshot");
        let s = self.state.lock();
        SchedulerSnapshot {
            queued: s.queue.iter().copied().collect(),
            // In flight here means computed, awaiting install.
            running: (0..s.computed.len()).filter(|&i| s.computed[i]).collect(),
            requeue: Vec::new(),
            backlogs: s.backlogs.clone(),
            max_imm_memtables: self.max_imm_memtables,
            workers: 0,
            shutdown: s.shutdown,
            pending_err: None,
            sim_steps: Some(s.steps),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    struct FakeTarget {
        work: AtomicU64,
        backlog: AtomicUsize,
    }

    impl MaintainTarget for FakeTarget {
        fn compute(&self) -> Result<bool> {
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

    fn fake(work: u64, backlog: usize) -> Arc<FakeTarget> {
        Arc::new(FakeTarget { work: AtomicU64::new(work), backlog: AtomicUsize::new(backlog) })
    }

    #[test]
    fn nothing_runs_until_stepped() {
        let sim = SimExecutor::new(4, 1, SinkHandle::none());
        let t = fake(3, 1);
        let id = sim.register(Arc::clone(&t) as Arc<dyn MaintainTarget>);
        sim.notify(id, 1);
        assert!(t.has_pending(), "registration and notify must not run work");
        assert!(sim.step().unwrap());
        assert_eq!(t.work.load(Ordering::SeqCst), 3, "a compute installs nothing");
        assert!(sim.step().unwrap());
        assert_eq!(t.work.load(Ordering::SeqCst), 2, "two steps — two halves — one unit");
    }

    #[test]
    fn same_seed_same_step_order() {
        let order = |seed: u64| {
            let sim = SimExecutor::new(4, seed, SinkHandle::none());
            let targets: Vec<_> = (0..4).map(|_| fake(3, 1)).collect();
            for t in targets.iter() {
                let id = sim.register(Arc::clone(t) as Arc<dyn MaintainTarget>);
                sim.notify(id, 1);
            }
            let mut trace = Vec::new();
            while sim.step().unwrap() {
                trace.push(
                    targets.iter().map(|t| t.work.load(Ordering::SeqCst)).collect::<Vec<_>>(),
                );
            }
            trace
        };
        assert_eq!(order(42), order(42), "same seed must replay the same order");
        assert_ne!(order(42), order(43), "different seeds should explore different orders");
    }

    #[test]
    fn drain_runs_everything_to_quiescence() {
        let sim = SimExecutor::new(4, 7, SinkHandle::none());
        let targets: Vec<_> = (0..3).map(|_| fake(10, 2)).collect();
        for t in targets.iter() {
            let id = sim.register(Arc::clone(t) as Arc<dyn MaintainTarget>);
            sim.notify(id, 2);
        }
        sim.drain().unwrap();
        for t in &targets {
            assert!(!t.has_pending());
        }
    }

    #[test]
    fn wait_for_room_steps_inline_until_backlog_drops() {
        let sim = SimExecutor::new(2, 9, SinkHandle::none());
        let t = fake(5, 3); // backlog 3 ≥ bound 2
        let id = sim.register(Arc::clone(&t) as Arc<dyn MaintainTarget>);
        sim.notify(id, 3);
        sim.wait_for_room(id).unwrap();
        assert!(t.backlog() < 2, "inline steps must have drained the backlog");
    }

    #[test]
    fn shutdown_errors_a_stalled_writer() {
        let sim = SimExecutor::new(2, 11, SinkHandle::none());
        let t = fake(5, 3);
        let id = sim.register(Arc::clone(&t) as Arc<dyn MaintainTarget>);
        sim.notify(id, 3);
        sim.request_shutdown();
        assert!(matches!(sim.wait_for_room(id), Err(LsmError::Shutdown(_))));
    }

    #[test]
    fn snapshot_reports_sim_steps() {
        let sim = SimExecutor::new(4, 13, SinkHandle::none());
        let t = fake(2, 1);
        let id = sim.register(Arc::clone(&t) as Arc<dyn MaintainTarget>);
        sim.notify(id, 1);
        sim.step().unwrap();
        let snap = sim.snapshot();
        assert_eq!(snap.workers, 0);
        assert_eq!(snap.sim_steps, Some(1));
        assert_eq!(snap.backlogs.len(), 1);
    }
}
