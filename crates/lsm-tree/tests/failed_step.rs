//! A maintenance step that fails leaves the tree as it was.
//!
//! A step is computed against a snapshot and installed only when the
//! compute returned `Ok`, so a device error in the middle of a flush, a
//! level merge, a compaction or a seam fix must cost nothing: every
//! acknowledged record still reads back, the retry succeeds, the structure
//! verifies, and no block is leaked (`live_blocks` equals the blocks the
//! levels reference). Before the split, a flush took its window out of the
//! memtable — and a level merge its blocks out of the source level, a
//! compaction the whole level — *before* the I/O that could fail.
//!
//! Each case arms a one-shot write fault — or, for level merges, a read
//! fault under a one-block cache, so that the merge reads its inputs from
//! the device — when a span of the wanted kind opens, so the failure lands
//! inside that phase whatever the interleaving:
//! inline on a bare `LsmTree` (the error surfaces from the put that
//! triggered the cascade) and under a background `ShardedLsmTree` (it
//! surfaces from `flush()`). Flushes and level merges fail under a leveled
//! policy and under Stepped-Merge, whose flush writes a whole run and
//! whose merge takes every run of a level.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use lsm_tree::observe::{Event, EventSink, SinkHandle, SpanKind, TraceEvent, TraceEventKind};
use lsm_tree::{
    BackgroundPolicy, Key, LsmConfig, LsmError, LsmTree, PolicySpec, Request, RetryPolicy,
    Scheduler, ShardedLsmTree, TreeOptions,
};
use sim_ssd::{BlockDevice, FaultDevice, FaultPlan, MemDevice};

/// Which phase to fail, and a workload in which that phase occurs.
#[derive(Clone)]
struct Case {
    kind: SpanKind,
    /// Only spans at this paper level or deeper (when the span names one).
    min_level: usize,
    /// Fail the `nth` write after the span opens; 2 = a block of the same
    /// step has already landed.
    nth: u64,
    /// Fail the `nth` read instead, with a cache of one block.
    reads: bool,
    /// Let this many such spans pass first, so the tree has some depth.
    skip: u64,
    policy: PolicySpec,
    waste_eps: f64,
    /// Requests, the key space they draw from, and deletes per ten.
    requests: u64,
    key_space: u64,
    deletes: u64,
}

impl Case {
    fn new(kind: SpanKind, min_level: usize, nth: u64) -> Self {
        Case {
            kind,
            min_level,
            nth,
            reads: false,
            skip: 5,
            policy: PolicySpec::ChooseBest,
            waste_eps: 0.2,
            requests: 6_000,
            key_space: 1_500,
            deletes: 4,
        }
    }

    fn cfg(&self) -> LsmConfig {
        LsmConfig {
            block_size: 256,
            payload_size: 4,
            k0_blocks: 4,
            gamma: 4,
            cache_blocks: if self.reads { 1 } else { 16 },
            merge_rate: 0.25,
            waste_eps: self.waste_eps,
            ..LsmConfig::default()
        }
    }

    /// Seeded puts and deletes: overwrites and deletes leave sparse blocks
    /// behind, so seam fixes and compactions happen.
    fn workload(&self) -> Vec<Request> {
        let mut x = 0x5EED_u64;
        (0..self.requests)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let key = (x >> 20) % self.key_space;
                if x % 10 < self.deletes {
                    Request::Delete(key)
                } else {
                    Request::Put(key, Bytes::from(vec![(i % 251) as u8; 4]))
                }
            })
            .collect()
    }
}

/// Fails the `nth` device write (or read) after a span of `kind` (at paper
/// level `min_level` or deeper, when the span names one) opens, once, after
/// letting `skip` such spans pass.
struct FailIn {
    kind: SpanKind,
    min_level: usize,
    nth: u64,
    reads: bool,
    dev: Arc<FaultDevice>,
    skip: AtomicU64,
    armed: AtomicBool,
    fired: AtomicBool,
}

impl EventSink for FailIn {
    fn accept(&self, entry: &TraceEvent) {
        let op = match entry.kind {
            TraceEventKind::Emit(Event::FaultInjected { .. }) => {
                self.fired.store(true, Ordering::SeqCst);
                return;
            }
            TraceEventKind::Begin { op, .. } if !self.fired.load(Ordering::SeqCst) => op,
            _ => return,
        };
        let wanted = op.kind == self.kind && op.level.is_none_or(|l| l >= self.min_level);
        if wanted && !self.armed.load(Ordering::SeqCst) {
            let skipped =
                self.skip.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
            if skipped.is_err() {
                self.armed.store(true, Ordering::SeqCst);
                let fail =
                    if self.reads { FaultPlan::fail_read_at } else { FaultPlan::fail_write_at };
                self.dev.set_plan(fail(FaultPlan::none(), self.nth));
            }
        } else if self.kind == SpanKind::PairwiseFix && self.armed.swap(false, Ordering::SeqCst) {
            // A seam that needed no fix wrote nothing, and the fault must
            // not leak into the merge that follows: wait for the next seam.
            self.dev.set_plan(FaultPlan::none());
        }
    }
}

struct Harness {
    dev: Arc<FaultDevice>,
    opts: TreeOptions,
}

fn harness(case: &Case, scheduler: Scheduler) -> Harness {
    let dev = Arc::new(FaultDevice::new(Arc::new(MemDevice::with_block_size(1 << 14, 256)), 7));
    let sink = FailIn {
        kind: case.kind,
        min_level: case.min_level,
        nth: case.nth,
        reads: case.reads,
        dev: Arc::clone(&dev),
        skip: AtomicU64::new(case.skip),
        armed: AtomicBool::new(false),
        fired: AtomicBool::new(false),
    };
    let opts = TreeOptions::builder()
        .policy(case.policy.clone())
        .retry(RetryPolicy::none())
        .scheduler(scheduler)
        .sink(SinkHandle::of(sink))
        .build();
    Harness { dev, opts }
}

type Model = BTreeMap<Key, Option<Bytes>>;

fn note(model: &mut Model, req: &Request) {
    match req {
        Request::Put(k, v) => model.insert(*k, Some(v.clone())),
        Request::Delete(k) => model.insert(*k, None),
    };
}

fn referenced_blocks(tree: &LsmTree) -> u64 {
    tree.levels().iter().map(|l| l.num_blocks() as u64).sum()
}

fn fails_inline(case: &Case) {
    let kind = case.kind;
    let h = harness(case, Scheduler::Inline);
    let dev = Arc::clone(&h.dev) as Arc<dyn BlockDevice>;
    let mut tree = LsmTree::new(case.cfg(), h.opts, dev).unwrap();
    let mut acked = Model::new();
    let mut failures = 0;
    for req in case.workload() {
        if let Err(e) = tree.apply(req.clone()) {
            failures += 1;
            assert!(matches!(e, LsmError::Device(_)), "{kind:?}: unexpected error {e}");
            // The tree is as it was before the step: nothing acknowledged
            // is missing. (The request that triggered the cascade reached
            // the memtable but was not acknowledged; skip its key.)
            for (k, v) in acked.iter().filter(|(k, _)| **k != req.key()) {
                assert_eq!(&tree.get(*k).unwrap(), v, "{kind:?}: acked key {k} after the failure");
            }
            tree.apply(req.clone()).unwrap_or_else(|e| panic!("{kind:?}: retry failed: {e}"));
        }
        note(&mut acked, &req);
    }
    assert_eq!(failures, 1, "{kind:?}: the fault never fired inside a {kind:?} span");
    for (k, v) in &acked {
        assert_eq!(&tree.get(*k).unwrap(), v, "{kind:?}: key {k} at the end");
    }
    lsm_tree::verify::check_tree(&tree, true).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
    assert_eq!(tree.store().live_blocks(), referenced_blocks(&tree), "{kind:?}: leaked blocks");
}

fn fails_in_background(case: &Case) {
    let kind = case.kind;
    let policy = BackgroundPolicy { workers: 2, max_imm_memtables: 2 };
    let h = harness(case, Scheduler::Background(policy));
    let devices = vec![Arc::clone(&h.dev) as Arc<dyn BlockDevice>];
    let tree = ShardedLsmTree::with_devices(case.cfg(), h.opts, devices).unwrap();
    let mut acked = Model::new();
    let mut failures = 0;
    for (i, req) in case.workload().into_iter().enumerate() {
        // A background maintenance error is parked for `flush`; a put
        // sees it only if it had to wait for the room that step would
        // have made. Either way the retry goes through.
        if let Err(e) = tree.apply(req.clone()) {
            failures += 1;
            assert!(matches!(e, LsmError::Device(_)), "{kind:?}: unexpected error {e}");
            tree.apply(req.clone()).unwrap_or_else(|e| panic!("{kind:?}: retry failed: {e}"));
        }
        note(&mut acked, &req);
        // Quiesce now and then, so levels fill and merge one by one as
        // they do inline instead of piling up behind the flushes.
        if i % 256 == 255 {
            if let Err(e) = tree.flush() {
                failures += 1;
                assert!(matches!(e, LsmError::Device(_)), "{kind:?}: unexpected error {e}");
                tree.flush().unwrap_or_else(|e| panic!("{kind:?}: flush after the failure: {e}"));
            }
        }
    }
    tree.flush().unwrap_or_else(|e| panic!("{kind:?}: final flush failed: {e}"));
    assert_eq!(failures, 1, "{kind:?}: the failed step must surface exactly once");
    for (k, v) in &acked {
        assert_eq!(&tree.get(*k).unwrap(), v, "{kind:?}: key {k}");
    }
    tree.deep_verify(true).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
    let (live, referenced) =
        tree.with_shard_read(0, |t| (t.store().live_blocks(), referenced_blocks(t)));
    assert_eq!(live, referenced, "{kind:?}: leaked blocks");
}

/// The reproduction from the issue, in `tests/persistence_and_faults.rs`'s
/// configuration: every write fails during the flush that the put filling
/// L0 triggers. At the parent commit 15 of the 119 acknowledged records
/// were gone from every later `get` once the fault cleared.
#[test]
fn failed_first_flush_loses_no_acknowledged_record() {
    let cfg = LsmConfig {
        block_size: 512,
        payload_size: 20,
        k0_blocks: 8,
        gamma: 8,
        cache_blocks: 64,
        merge_rate: 0.1,
        ..LsmConfig::default()
    };
    let dev = Arc::new(FaultDevice::new(Arc::new(MemDevice::with_block_size(1 << 14, 512)), 11));
    let mut tree =
        LsmTree::new(cfg, TreeOptions::default(), Arc::clone(&dev) as Arc<dyn BlockDevice>)
            .unwrap();
    let cap = tree.config().l0_capacity_records() as u64;
    let payload = |k: u64| vec![(k % 251) as u8; 20];
    for k in 0..cap - 1 {
        tree.put(k, payload(k)).unwrap();
    }
    dev.set_plan(FaultPlan::none().write_error_rate(1.0));
    assert!(matches!(tree.put(u64::MAX / 2, payload(1)), Err(LsmError::Device(_))));
    dev.set_plan(FaultPlan::none());
    let lost: Vec<u64> = (0..cap - 1)
        .filter(|&k| tree.get(k).unwrap().as_deref() != Some(&payload(k)[..]))
        .collect();
    assert!(lost.is_empty(), "{} of {} acked records lost: {lost:?}", lost.len(), cap - 1);
    assert_eq!(tree.store().live_blocks(), 0, "the failed flush leaked blocks");
    // The retry (any later put) flushes for real.
    tree.put(u64::MAX / 2, payload(1)).unwrap();
    assert!(tree.levels()[0].num_blocks() > 0);
    lsm_tree::verify::check_tree(&tree, true).unwrap();
    assert_eq!(tree.store().live_blocks(), referenced_blocks(&tree));
}

fn fails_both_ways(case: Case) {
    fails_inline(&case);
    fails_in_background(&case);
}

/// A leveled policy and Stepped-Merge.
fn both_shapes() -> [PolicySpec; 2] {
    [PolicySpec::ChooseBest, PolicySpec::SteppedMerge { fan_in: 3 }]
}

#[test]
fn failed_flush_installs_nothing() {
    for policy in both_shapes() {
        for nth in [1, 2] {
            fails_both_ways(Case {
                policy: policy.clone(),
                ..Case::new(SpanKind::MemtableFlush, 0, nth)
            });
        }
    }
}

#[test]
fn failed_level_merge_installs_nothing() {
    for policy in both_shapes() {
        for (nth, reads) in [(1, false), (2, false), (1, true), (3, true)] {
            let case = Case::new(SpanKind::Merge, 2, nth);
            fails_both_ways(Case { policy: policy.clone(), reads, ..case });
        }
    }
}

#[test]
fn failed_compaction_installs_nothing() {
    // A tight waste bound makes compactions routine.
    for nth in [1, 2] {
        fails_both_ways(Case {
            waste_eps: 0.05,
            requests: 20_000,
            key_space: 3_000,
            deletes: 5,
            ..Case::new(SpanKind::Compaction, 1, nth)
        });
    }
}

#[test]
fn failed_pair_fix_installs_nothing() {
    // Round-robin windows cut a level at arbitrary seams, some of which
    // leave two small neighbours to fuse.
    fails_both_ways(Case {
        skip: 0,
        policy: PolicySpec::RoundRobin,
        requests: 40_000,
        key_space: 20_000,
        deletes: 3,
        ..Case::new(SpanKind::PairwiseFix, 1, 1)
    });
}

/// A fault that *lasts*: every retry of the failed step fails too, and
/// since a failed step installs nothing its work stays pending. `flush()`
/// must come back with the error each time it is asked (not re-run the
/// step until the device heals), lose nothing meanwhile, and finish the
/// work on the first call after the fault clears.
#[test]
fn flush_returns_a_persistent_fault_and_succeeds_once_it_clears() {
    let case = Case::new(SpanKind::MemtableFlush, 0, 1);
    let policy = BackgroundPolicy { workers: 2, max_imm_memtables: 2 };
    let opts = TreeOptions::builder()
        .retry(RetryPolicy::none())
        .scheduler(Scheduler::Background(policy))
        .build();
    let devs: Vec<Arc<FaultDevice>> = (0..2)
        .map(|i| Arc::new(FaultDevice::new(Arc::new(MemDevice::with_block_size(1 << 14, 256)), i)))
        .collect();
    let devices = devs.iter().map(|d| Arc::clone(d) as Arc<dyn BlockDevice>).collect();
    let tree = Arc::new(ShardedLsmTree::with_devices(case.cfg(), opts, devices).unwrap());
    // Some depth first, so the failing steps include level merges.
    let mut acked = Model::new();
    for req in case.workload().into_iter().take(2_000) {
        tree.apply(req.clone()).unwrap();
        note(&mut acked, &req);
    }
    tree.flush().unwrap();

    for dev in &devs {
        dev.set_plan(FaultPlan::none().write_error_rate(1.0));
    }
    // One sealed memtable per shard: below the backlog bound, so no put
    // has to wait for (and be failed by) the step that cannot succeed.
    let cap = case.cfg().l0_capacity_records() as u64;
    for k in 0..3 * cap {
        let req = Request::Put(10_000 + k, Bytes::from(vec![7u8; 4]));
        tree.apply(req.clone()).unwrap();
        note(&mut acked, &req);
    }
    for attempt in 0..3 {
        // On a thread, so that a flush that never returns fails the test
        // instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let flusher = Arc::clone(&tree);
        std::thread::spawn(move || tx.send(flusher.flush()));
        let res = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .unwrap_or_else(|_| panic!("flush {attempt} did not return while the fault lasted"));
        assert!(matches!(res, Err(LsmError::Device(_))), "flush {attempt}: {res:?}");
        for (k, v) in &acked {
            assert_eq!(&tree.get(*k).unwrap(), v, "key {k} after failed flush {attempt}");
        }
    }

    for dev in &devs {
        dev.set_plan(FaultPlan::none());
    }
    tree.flush().expect("the first flush after the fault cleared");
    for (k, v) in &acked {
        assert_eq!(&tree.get(*k).unwrap(), v, "key {k} at the end");
    }
    tree.deep_verify(true).unwrap();
    for shard in 0..tree.shard_count() {
        let (live, referenced) =
            tree.with_shard_read(shard, |t| (t.store().live_blocks(), referenced_blocks(t)));
        assert_eq!(live, referenced, "shard {shard}: leaked blocks");
    }
}
