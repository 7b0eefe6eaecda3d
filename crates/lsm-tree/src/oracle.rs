//! One model oracle for every front-end (DESIGN.md §6): one seeded tape of
//! requests runs in lockstep through one `BTreeMap` and a list of subjects,
//! one per front-end configuration, each written through
//! [`WriteApi`](crate::WriteApi). The relations:
//!
//! 1. every get and scan equals the map; a refused put changes nothing;
//! 2. the structural verifier passes every 64 ops, and deep at the end;
//! 3. twins — subjects that differ only in cache budget, backend, log or
//!    batch cut — count and write the same; over one store, reopened alike,
//!    they read, trim and sync the same;
//! 4. a sharded tree inline is, shard for shard, bare trees fed its routing;
//! 5. a get of a bare tree reads and skips what a walk over its handles does;
//! 6. a crash subject, power-cut inside a burst of writes, recovers a prefix
//!    of every shard's history that covers what it acked, and once sent what
//!    it lost rejoins the model.
//!
//! Reach counters fail a tape too weak to show these. A failure names the
//! seed, the op and the subject; a tape is a function of its seed alone.

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    use bytes::Bytes;
    use observe::{Event, EventSink, FaultEventKind, SinkHandle, TraceEvent, TraceEventKind};
    use sim_ssd::{BlockDevice, FaultDevice, FaultPlan, FileDevice, MemDevice, SplitMix64};

    use crate::block::{BLOCK_HEADER_LEN, RECORD_HEADER_LEN};
    use crate::history::HistoryRecord;
    use crate::history::{cut_wal_tail, judge, logs_at_cut, AckStatus, HistoryChecker};
    use crate::sharded::shard_index;
    use crate::store::RowHits;
    use crate::verify::check_tree;
    use crate::{
        Key, LsmConfig, LsmError, LsmTree, MergeScheduler, MixedParams, PolicySpec, Record,
        Request, Result, Scheduler, ShardedLsmTree, TreeOptions, TreeStats, WriteApi,
    };

    /// One tape a seed, of key shape `seed % 3`.
    const SEEDS: [u64; 3] = [0x0AC1_E000, 0x0AC1_E001, 0x0AC1_E002];
    const OPS: usize = 1_200;
    /// The chunk edges of `shard::MAX_REQUESTS_PER_HOLD`, and ten chunks.
    const BATCHES: [usize; 5] = [1, 255, 256, 257, 2_560];
    /// A row of a 4-byte payload is lighter than a 1 KiB block: a get that
    /// misses a full cache keeps its row.
    const BLOCK: usize = 1_024;
    /// One byte over `payload_size`, and a payload that fills a block.
    const REFUSED: [usize; 2] = [5, BLOCK - BLOCK_HEADER_LEN - RECORD_HEADER_LEN];

    type Model = BTreeMap<Key, Bytes>;

    /// Run `f`; if it panics, say `what` failed, and go on panicking.
    fn named<T>(what: impl FnOnce() -> String, f: impl FnOnce() -> T) -> T {
        catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
            eprintln!("... in {}", what());
            resume_unwind(panic)
        })
    }

    #[derive(Debug)]
    enum Op {
        Write(Request),
        Get(Key),
        Scan(Key, Key, u64),
        Batch(Vec<Request>),
        Refused(Key, usize),
        Step,
        Flush,
        Reopen,
        /// A burst of writes, a power cut armed this many device ops ahead.
        Crash(Vec<Request>, u64),
    }

    impl Op {
        fn writes(&self) -> &[Request] {
            match self {
                Op::Write(req) => std::slice::from_ref(req),
                Op::Batch(reqs) | Op::Crash(reqs, _) => reqs,
                _ => &[],
            }
        }
    }

    /// The key shapes of the per-policy proptests — uniform; two clusters;
    /// a sequential load whose second half deletes — and gets that often
    /// ask again for one of the last four keys asked.
    struct Tape {
        rng: SplitMix64,
        shape: u64,
        /// Sequential: the last key loaded.
        last: Key,
        recent: [Key; 4],
    }

    impl Tape {
        fn write(&mut self, late: bool) -> Request {
            let (put, v) = (self.rng.gen_range(5) < 3, self.rng.next_u64() as u8);
            let v = Bytes::from(vec![v; 4]);
            let key = match (self.shape, late) {
                (0, _) => self.rng.gen_range(1_200),
                (1, _) if self.rng.chance(0.6) => 2 * self.rng.gen_range(200),
                (1, _) => 10_000 + self.rng.gen_range(200),
                (_, false) => {
                    self.last += 1;
                    return Request::Put(self.last, v);
                }
                (_, true) => return Request::Delete(self.rng.gen_range(self.last + 1)),
            };
            match put {
                true => Request::Put(key, v),
                false => Request::Delete(key),
            }
        }

        /// A key to ask for, present or absent, below and above the data.
        fn probe(&mut self) -> Key {
            match self.shape {
                0 => self.rng.gen_range(1_300),
                1 if self.rng.chance(0.6) => self.rng.gen_range(420),
                1 => 9_990 + self.rng.gen_range(220),
                _ => self.rng.gen_range(self.last + 50),
            }
        }

        fn op(&mut self, late: bool) -> Op {
            let pick = self.rng.gen_range(1_000);
            match pick {
                0..=469 => Op::Write(self.write(late)),
                470..=599 => Op::Get(self.recent[self.rng.gen_range(4) as usize]),
                600..=849 => {
                    self.recent.rotate_left(1);
                    self.recent[3] = self.probe();
                    Op::Get(self.recent[3])
                }
                850..=889 => Op::Scan(self.probe(), self.probe(), self.rng.gen_range(6)),
                890..=939 => Op::Step,
                940..=953 => Op::Refused(self.probe(), REFUSED[pick as usize % 2]),
                954..=961 => Op::Flush,
                962..=967 => Op::Reopen,
                968..=971 => {
                    let n = BATCHES[self.rng.gen_range(5) as usize];
                    Op::Batch((0..n).map(|_| self.write(late)).collect())
                }
                972..=976 => {
                    // One in six spills the logs' user-space buffers.
                    let n = 30 + self.rng.gen_range(100) + 600 * u64::from(self.rng.chance(0.17));
                    let burst = (0..n).map(|_| self.write(late)).collect();
                    Op::Crash(burst, 1 + self.rng.gen_range(8))
                }
                _ => Op::Get(self.probe()),
            }
        }
    }

    fn tape(seed: u64) -> Vec<Op> {
        let mut tape =
            Tape { rng: SplitMix64::new(seed), shape: seed % 3, last: 0, recent: [0; 4] };
        (0..OPS).map(|i| tape.op(i >= OPS / 2)).collect()
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Backend {
        Mem,
        File,
        Fault,
    }

    /// `Simulated`: `MergeScheduler::simulated`, maintenance only inside
    /// writers' calls and the tape's steps. `Pool`: the worker pool.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Sched {
        Inline,
        Simulated,
        Pool,
    }

    /// The backend, the cache budget (blocks, split over shards) and the
    /// filters' bits a key.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Dev {
        backend: Backend,
        cache: usize,
        bloom: usize,
    }

    const DEV: Dev = Dev { backend: Backend::Mem, cache: 4_096, bloom: 10 };

    /// One front-end configuration the tape runs through.
    #[derive(Clone, Debug, PartialEq)]
    enum Subject {
        /// A bare `LsmTree`; a `driven` one buffers, seals a full memtable
        /// and leaves flushes and merges to the tape's steps, as a
        /// background front-end does.
        Tree { policy: PolicySpec, preserve: bool, driven: bool, dev: Dev },
        /// A `cut` one takes a batch shard by shard, a request at a time; a
        /// `crash` one (logged, its devices under `FaultDevice`s) loses
        /// power at every `Op::Crash`.
        Sharded {
            shards: usize,
            sched: Sched,
            wal: bool,
            cut: bool,
            dev: Dev,
            policy: PolicySpec,
            crash: bool,
        },
        /// Bare `LsmTree`s fed the sub-tapes the sharded router sends.
        Routed { shards: usize, dev: Dev },
    }

    impl Subject {
        fn dev_mut(&mut self) -> &mut Dev {
            match self {
                Subject::Tree { dev, .. }
                | Subject::Sharded { dev, .. }
                | Subject::Routed { dev, .. } => dev,
            }
        }

        fn dev(&self) -> Dev {
            *self.clone().dev_mut()
        }

        /// The subject with every axis that must not change the counters
        /// at its default: subjects with one key are twins, bare trees fed
        /// a router's sub-tapes among the router's. Not the log under a
        /// simulated scheduler: a reopen, which only a logged tree has,
        /// moves the scheduler's seed on. A crash subject is a class of
        /// its own.
        fn twin_key(&self) -> Subject {
            let mut key = self.clone();
            if self.crashes() {
                return key;
            }
            if let Subject::Routed { shards, dev } = key {
                let (sched, policy) = (Sched::Inline, PolicySpec::ChooseBest);
                let crash = false;
                key = Subject::Sharded { shards, sched, wal: true, cut: false, dev, policy, crash };
            }
            if let Subject::Sharded { sched, wal, cut, .. } = &mut key {
                (*wal, *cut) = (*wal && *sched != Sched::Inline, false);
            }
            (key.dev_mut().backend, key.dev_mut().cache) = (Backend::Mem, DEV.cache);
            key
        }

        fn logged(&self) -> bool {
            matches!(self, Subject::Sharded { wal: true, .. })
        }

        fn crashes(&self) -> bool {
            matches!(self, Subject::Sharded { crash: true, .. })
        }

        /// Whether a reopen checkpoints and reopens the subject.
        fn reopens(&self) -> bool {
            self.logged() || matches!(self, Subject::Tree { .. } | Subject::Routed { .. })
        }
    }

    /// Every policy with and without preservation; a driven tree; the
    /// sharded router inline and simulated, logged or not, and on the pool;
    /// Stepped-Merge bare at three fan-ins; each other axis at `ChooseBest`
    /// with preservation; and the crash subjects: every policy as a
    /// simulated 2-shard router, and `ChooseBest` inline on one shard over
    /// each backend.
    fn subjects() -> Vec<Subject> {
        let mut mixed = MixedParams { beta: false, default_tau: 0.5, ..MixedParams::default() };
        mixed.thresholds.extend([(2, 0.3), (3, 0.7)]);
        let (best, aligned) = (PolicySpec::ChooseBest, PolicySpec::ChooseBestAligned);
        let policies =
            [PolicySpec::Full, PolicySpec::RoundRobin, best, aligned, PolicySpec::TestMixed];
        let tree = |policy, preserve, driven, dev| Subject::Tree { policy, preserve, driven, dev };
        let sharded = |n, s, wal, cut, dev| {
            let policy = PolicySpec::ChooseBest;
            Subject::Sharded { shards: n, sched: s, wal, cut, dev, policy, crash: false }
        };
        let crash = |shards, sched, dev, policy| Subject::Sharded {
            shards,
            sched,
            wal: true,
            cut: false,
            dev,
            policy,
            crash: true,
        };
        let axes = [(Backend::Mem, 1), (Backend::File, DEV.cache), (Backend::Fault, DEV.cache)]
            .map(|(backend, cache)| Dev { backend, cache, ..DEV });
        let policies = policies.into_iter().chain([PolicySpec::Mixed(mixed)]);
        let mut all: Vec<Subject> = (policies.clone())
            .flat_map(|p| [true, false].map(|preserve| tree(p.clone(), preserve, false, DEV)))
            .collect();
        let others = axes.into_iter().chain([Dev { cache: 8, ..DEV }, Dev { bloom: 0, ..DEV }]);
        all.extend(others.map(|dev| tree(PolicySpec::ChooseBest, true, false, dev)));
        all.push(tree(PolicySpec::ChooseBest, true, true, DEV));
        for shards in [1, 3] {
            for sched in [Sched::Inline, Sched::Simulated] {
                let logs = [(false, false), (true, false), (true, true)];
                all.extend(logs.map(|(wal, cut)| sharded(shards, sched, wal, cut, DEV)));
            }
            all.push(Subject::Routed { shards, dev: DEV });
        }
        all.push(sharded(1, Sched::Pool, false, false, DEV));
        all.extend(axes.map(|dev| sharded(3, Sched::Inline, true, false, dev)));
        let stepped = [(4, DEV), (2, DEV), (3, DEV)].into_iter().chain(axes.map(|dev| (3, dev)));
        let stepped = stepped.map(|(fan_in, dev)| (PolicySpec::SteppedMerge { fan_in }, dev));
        all.extend(stepped.map(|(policy, dev)| tree(policy, true, false, dev)));
        let policies = policies.chain([PolicySpec::SteppedMerge { fan_in: 3 }]);
        all.extend(policies.map(|p| crash(2, Sched::Simulated, DEV, p)));
        all.extend(axes.map(|dev| crash(1, Sched::Inline, dev, PolicySpec::ChooseBest)));
        all
    }

    /// A driven tree: at the sealed backlog's bound, a full memtable waits.
    struct Driven<'a>(&'a mut LsmTree);

    impl WriteApi for Driven<'_> {
        fn apply(&mut self, req: Request) -> Result<()> {
            self.0.apply_buffered(req)?;
            if self.0.mem_at_capacity() {
                while self.0.imm_count() >= 3 {
                    self.0.maintenance_step()?;
                }
                self.0.seal_memtable();
            }
            Ok(())
        }

        fn flush(&mut self) -> Result<()> {
            self.0.drain_maintenance()
        }
    }

    struct Routed<'a>(&'a mut [LsmTree]);

    impl WriteApi for Routed<'_> {
        fn apply(&mut self, req: Request) -> Result<()> {
            self.0[shard_index(req.key(), self.0.len())].apply(req)
        }

        fn flush(&mut self) -> Result<()> {
            self.0.iter_mut().try_for_each(WriteApi::flush)
        }
    }

    /// The writes of `op`, through the one interface every front-end has.
    fn write<W: WriteApi>(w: &mut W, op: &Op) -> Result<()> {
        match op {
            Op::Write(req) => w.apply(req.clone()),
            Op::Batch(reqs) => w.write_batch(reqs.iter().cloned().collect()),
            Op::Refused(k, len) => w.put(*k, vec![7u8; *len]),
            Op::Flush => w.flush(),
            _ => Ok(()),
        }
    }

    enum Front {
        /// A bare tree, and whether it is driven.
        Tree(Box<LsmTree>, bool),
        /// A sharded tree, its simulated scheduler, whether it is cut.
        Sharded(ShardedLsmTree, Option<Arc<MergeScheduler>>, bool),
        Routed(Vec<LsmTree>),
    }

    impl Front {
        fn write(&mut self, op: &Op) -> Result<()> {
            match (self, op) {
                (Front::Tree(t, false), _) => write(&mut **t, op),
                (Front::Tree(t, true), _) => write(&mut Driven(t), op),
                (Front::Sharded(t, _, true), Op::Batch(reqs)) => {
                    (0..t.shard_count()).try_for_each(|i| {
                        let mut mine = reqs.iter().filter(|r| t.shard_of(r.key()) == i);
                        mine.try_for_each(|req| t.apply_unacked(i, req.clone()).map(drop))
                    })
                }
                (Front::Sharded(t, ..), _) => write(t, op),
                (Front::Routed(ts), _) => write(&mut Routed(ts), op),
            }
        }

        fn get(&self, key: Key) -> Option<Bytes> {
            match self {
                Front::Tree(t, _) => t.get(key),
                Front::Sharded(t, ..) => t.get(key),
                Front::Routed(ts) => ts[shard_index(key, ts.len())].get(key),
            }
            .unwrap()
        }

        fn scan(&self, lo: Key, hi: Key) -> Vec<(Key, Bytes)> {
            match self {
                Front::Tree(t, _) => t.scan(lo, hi).collect::<Result<_>>().unwrap(),
                Front::Sharded(t, ..) => t.scan_collect(lo, hi).unwrap(),
                Front::Routed(ts) => {
                    let all: Result<Model> = ts.iter().flat_map(|t| t.scan(lo, hi)).collect();
                    all.unwrap().into_iter().collect()
                }
            }
        }

        /// `f` of every `LsmTree` of the front-end, shard by shard.
        fn trees<T>(&self, f: impl Fn(&LsmTree) -> T) -> Vec<T> {
            match self {
                Front::Tree(t, _) => vec![f(t)],
                Front::Sharded(t, ..) => {
                    (0..t.shard_count()).map(|i| t.with_shard_read(i, &f)).collect()
                }
                Front::Routed(ts) => ts.iter().map(f).collect(),
            }
        }

        fn stats(&self) -> Vec<TreeStats> {
            self.trees(|t| t.stats().clone())
        }

        /// The logs' lengths and, synced, their bytes.
        fn logs(&self, dir: &Path) -> (Vec<u64>, Vec<Vec<u8>>) {
            let Front::Sharded(t, ..) = self else { return Default::default() };
            let read = |i| std::fs::read(ShardedLsmTree::wal_path(dir, i)).unwrap_or_default();
            (t.wal_lens(), (0..t.shard_count()).map(read).collect())
        }

        fn fences(&self) -> Vec<Key> {
            let levels = |t: &LsmTree| -> Vec<Key> {
                t.levels()
                    .iter()
                    .flat_map(|l| l.handles().iter().flat_map(|h| [h.min, h.max]))
                    .collect()
            };
            self.trees(levels).concat()
        }
    }

    /// A get of a bare tree: the model's answer, and counted as the lookup
    /// before levels had a search index reads and skips — a binary search
    /// over the handles, each handle's own filter, a read caching nothing.
    fn check_get(tree: &LsmTree, key: Key, want: Option<&Bytes>) {
        let visible = |r: &Record| (!r.is_tombstone()).then(|| r.payload.clone());
        let walk = || {
            let sealed: Vec<_> = tree.imm_memtables().collect();
            let mut buffered = std::iter::once(tree.memtable()).chain(sealed.into_iter().rev());
            if let Some(r) = buffered.find_map(|mem| mem.get(key)) {
                return (visible(r), 0, 0);
            }
            let (mut reads, mut skips) = (0, 0);
            for level in tree.levels() {
                let handles = level.handles();
                let idx = handles.partition_point(|h| h.max < key);
                let Some(handle) = handles.get(idx).filter(|h| h.min <= key) else { continue };
                if handle.bloom.as_ref().is_some_and(|f| !f.may_contain(key)) {
                    skips += 1;
                    continue;
                }
                reads += 1;
                if let Some(r) = tree.store().read_retiring(handle).unwrap().find(key) {
                    return (visible(&r), reads, skips);
                }
            }
            (None, reads, skips)
        };
        let ((walked, reads, skips), s) = (walk(), tree.stats());
        let counts = || (s.lookups(), s.lookup_block_reads(), s.bloom_skips());
        let before = counts();
        let got = tree.get(key).unwrap();
        assert!(got.as_ref() == want && walked == got, "get({key}) {got:?}, walk {walked:?}");
        let cache = tree.store().cache_stats();
        assert!(cache.resident <= cache.capacity, "get({key}): the cache over its budget");
        assert_eq!(counts(), (before.0 + 1, before.1 + reads, before.2 + skips), "get({key})");
    }

    /// The fault plan of a device: transient read and write errors the
    /// default `RetryPolicy` absorbs on the fault backend, none on another.
    fn faults(backend: Backend) -> FaultPlan {
        let rate = if backend == Backend::Fault { 0.02 } else { 0.0 };
        FaultPlan::none().read_error_rate(rate).write_error_rate(rate)
    }

    /// Device `i` of a subject, in memory or in a file — under a
    /// `FaultDevice`, returned too, on the fault backend and on a crash
    /// subject.
    fn device(
        s: &Subject,
        dir: &Path,
        seed: u64,
        i: usize,
    ) -> (Arc<dyn BlockDevice>, Option<Fault>) {
        let backend = s.dev().backend;
        let file = || FileDevice::create_with_block_size(dir.join(i.to_string()), 1 << 12, BLOCK);
        let inner: Arc<dyn BlockDevice> = match backend {
            Backend::File => Arc::new(file().unwrap()),
            _ => Arc::new(MemDevice::with_block_size(1 << 12, BLOCK)),
        };
        if backend != Backend::Fault && !s.crashes() {
            return (inner, None);
        }
        let fault = Arc::new(FaultDevice::with_plan(inner, seed ^ i as u64, faults(backend)));
        (Arc::clone(&fault) as _, Some(fault))
    }

    /// Build a run's subject over its devices: new at incarnation 0, else
    /// reopened from what the last incarnation checkpointed.
    fn open(run: &Live) -> Front {
        let (devices, dir, incarnation) = (&run.devices, &run.dir, run.incarnation);
        let Dev { cache, bloom, .. } = run.subject.dev();
        let cfg = LsmConfig {
            block_size: BLOCK,
            payload_size: 4,
            k0_blocks: 2,
            gamma: 3,
            merge_rate: 0.4,
            cache_blocks: cache,
            bloom_bits_per_key: bloom,
            ..LsmConfig::default()
        };
        let device = |i: usize| Arc::clone(&devices[i]);
        let tree = |i: usize, cfg: LsmConfig, opts: TreeOptions| match incarnation {
            0 => LsmTree::new(cfg, opts, device(i)).unwrap(),
            _ => LsmTree::restore(dir.join(format!("tree-{i}")), opts, device(i)).unwrap(),
        };
        match run.subject.clone() {
            Subject::Tree { policy, preserve, driven, .. } => {
                let opts = TreeOptions::builder().policy(policy).preserve_blocks(preserve);
                Front::Tree(Box::new(tree(0, cfg, opts.build())), driven)
            }
            Subject::Routed { shards, .. } => {
                let cfg = LsmConfig { cache_blocks: (cache / shards).max(1), ..cfg };
                let trees = (0..shards).map(|i| tree(i, cfg.clone(), Default::default()));
                Front::Routed(trees.collect())
            }
            Subject::Sharded { sched, wal, cut, policy, crash, .. } => {
                let sink = crash.then(|| SinkHandle::new(Arc::clone(&run.sink) as _));
                let opts = TreeOptions::builder().policy(policy);
                let mut opts = opts.sink(sink.unwrap_or_else(SinkHandle::none)).build();
                if sched == Sched::Pool {
                    opts.scheduler = Scheduler::background();
                }
                let seed = run.seed ^ incarnation;
                let sim = (sched == Sched::Simulated)
                    .then(|| Arc::new(MergeScheduler::simulated(2, seed, SinkHandle::none())));
                let (devs, with) = (devices.to_vec(), sim.clone());
                let tree = match incarnation {
                    0 => ShardedLsmTree::with_backend(cfg, opts, devs, wal.then_some(dir), with),
                    _ => ShardedLsmTree::recover_with_backend(cfg, opts, devs, dir, with),
                };
                Front::Sharded(tree.unwrap(), sim, cut)
            }
        }
    }

    /// The puts, deletes and lookups `stats` counted.
    fn requests(stats: &[TreeStats]) -> [u64; 3] {
        stats.iter().fold([0; 3], |n, s| [n[0] + s.puts, n[1] + s.deletes, n[2] + s.lookups()])
    }

    type Fault = Arc<FaultDevice>;

    /// A crash subject's sink: whether a merge has begun and not finished,
    /// and, once the power went in a burst, whether one had then.
    #[derive(Default)]
    struct Cuts(std::sync::Mutex<(bool, Option<bool>)>);

    impl EventSink for Cuts {
        fn accept(&self, entry: &TraceEvent) {
            let TraceEventKind::Emit(event) = entry.kind else { return };
            let mut cuts = self.0.lock().unwrap();
            match event {
                Event::MergeStart { .. } => cuts.0 = true,
                Event::MergeFinish { .. } | Event::MemtableFlush { .. } => cuts.0 = false,
                Event::FaultInjected { kind: FaultEventKind::PowerCut, .. } => {
                    cuts.1 = cuts.1.or(Some(cuts.0))
                }
                _ => {}
            }
        }
    }

    /// What a subject reached over every tape: merges into L1 (each L0 fill
    /// is one or more), the most levels a tree grew, rows hit, scans of a
    /// sealed memtable and two levels; and of a crash subject, its crashes,
    /// the cuts that failed a maintenance step and those inside a merge,
    /// the logs cut inside their unsynced tails, and the recoveries the
    /// ack-before-fsync mutation is caught on.
    #[derive(Default)]
    struct Reach {
        l0_fills: u64,
        height: usize,
        rows: Vec<RowHits>,
        sealed_scans: u64,
        crashes: u64,
        step_cuts: u64,
        merge_cuts: u64,
        torn_tails: u64,
        ack_bugs: u64,
    }

    /// One subject's live front-end and what the oracle keeps beside it:
    /// of a crash subject, its `FaultDevice`s, the events since its last
    /// burst began, and per shard every request sent, of which the first
    /// `acked` an `Ok` flush, checkpoint or recovery covered.
    struct Live {
        subject: Subject,
        front: Front,
        devices: Vec<Arc<dyn BlockDevice>>,
        faults: Vec<Fault>,
        sink: Arc<Cuts>,
        sent: Vec<Vec<Request>>,
        acked: Vec<usize>,
        dir: PathBuf,
        seed: u64,
        incarnation: u64,
        reach: Reach,
    }

    impl Live {
        fn new(subject: Subject, seed: u64, j: usize, reach: Reach) -> Live {
            let dir = std::env::temp_dir().join(format!("lsm-oracle-{}-{j}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let shards = match subject {
                Subject::Sharded { shards, .. } | Subject::Routed { shards, .. } => shards,
                _ => 1,
            };
            let (devices, faults): (_, Vec<_>) =
                (0..shards).map(|i| device(&subject, &dir, seed, i)).unzip();
            let (front, sink) = (Front::Routed(Vec::new()), Arc::<Cuts>::default());
            let (faults, sent, acked) = (faults.into_iter().flatten().collect(), vec![], vec![]);
            let mut run = Live {
                subject,
                front,
                devices,
                faults,
                sink,
                sent,
                acked,
                dir,
                seed,
                incarnation: 0,
                reach,
            };
            run.sent.resize(shards, Vec::new());
            run.acked.resize(shards, 0);
            run.front = open(&run);
            assert!(run.front.scan(0, Key::MAX).is_empty(), "a new tree");
            run
        }

        /// Per shard, every counter since the tape began: a reopened tree
        /// counts on from its checkpoint's.
        fn counters(&self) -> Vec<TreeStats> {
            self.front.stats()
        }

        /// Per device, its counts; or its writes alone.
        fn io<T>(&self, f: impl Fn(sim_ssd::IoSnapshot) -> T) -> Vec<T> {
            self.devices.iter().map(|d| f(d.io_snapshot())).collect()
        }

        fn retire_rows(&mut self) {
            if let Front::Tree(t, _) = &self.front {
                self.reach.rows.push(t.store().row_hits());
            }
        }

        /// Checkpoint and reopen over the same devices — a sharded tree
        /// through its log directory, so only a logged one.
        fn reopen(&mut self) {
            let manifest = |i: usize| self.dir.join(format!("tree-{i}"));
            match &self.front {
                _ if !self.subject.reopens() => return,
                Front::Tree(t, _) => t.checkpoint(manifest(0)),
                Front::Routed(ts) => {
                    ts.iter().enumerate().try_for_each(|(i, t)| t.checkpoint(manifest(i)))
                }
                Front::Sharded(t, ..) => t.checkpoint(),
            }
            .unwrap();
            self.ack();
            let counters = self.counters();
            self.retire_rows();
            self.incarnation += 1;
            drop(std::mem::replace(&mut self.front, Front::Routed(Vec::new())));
            self.front = open(self);
            assert!(self.counters() == counters, "the counters across a reopen");
        }

        /// Relation 2 on every tree with no maintenance pending (`deep`:
        /// every block re-read).
        fn check(&self, deep: bool) {
            let quiet = |t: &LsmTree| t.maintenance_pending().then_some(Ok(()));
            self.front.trees(|t| quiet(t).unwrap_or_else(|| check_tree(t, deep)).unwrap());
        }

        /// An `Ok` flush, checkpoint or recovery: what was sent is durable;
        /// a shard's history keeps of it the last put of each live key.
        fn ack(&mut self) {
            for sent in &mut self.sent {
                let last: BTreeMap<Key, Request> = sent.drain(..).map(|r| (r.key(), r)).collect();
                sent.extend(last.into_values().filter(|r| matches!(r, Request::Put(..))));
            }
            self.acked = self.sent.iter().map(Vec::len).collect();
        }

        /// Note `req` in a crash subject's history of its shard.
        fn note(&mut self, req: &Request) {
            let shards = self.sent.len();
            self.sent[shard_index(req.key(), shards)].push(req.clone());
        }

        /// Send `req` to a crash subject, noted first: a call that fails
        /// may have reached the log.
        fn send(&mut self, req: &Request) -> Result<()> {
            self.note(req);
            self.front.write(&Op::Write(req.clone()))
        }

        /// Relation 6 at an `Op::Crash`: the burst, each write followed by
        /// a half-step of a simulated scheduler, until a call fails; the
        /// host's death; recovery judged shard by shard; and what recovery
        /// lost and the burst never sent, sent again.
        fn crash(&mut self, burst: &[Request], ahead: u64) {
            let backend = self.subject.dev().backend;
            for f in &self.faults {
                f.set_plan(faults(backend).power_cut_at(f.ops_issued() + ahead));
            }
            *self.sink.0.lock().unwrap() = Default::default();
            let sim = match &self.front {
                Front::Sharded(_, sim, _) => sim.clone(),
                _ => None,
            };
            let mut unsent = burst.iter();
            for req in unsent.by_ref() {
                if self.send(req).is_err() {
                    break;
                }
                sim.iter().for_each(|sim| _ = sim.step());
            }
            // The devices lose power, and what each log's file held at that
            // instant is all a cut may keep: the destructors flush past it.
            let cut = self.sink.0.lock().unwrap().1;
            self.faults.iter().for_each(|f| f.power_cut());
            let Front::Sharded(t, ..) = &self.front else { unreachable!("a crash subject routes") };
            let logs = logs_at_cut(t, &self.dir);
            drop(std::mem::replace(&mut self.front, Front::Routed(Vec::new())));
            let mut rng = SplitMix64::new(self.seed ^ self.incarnation);
            for (path, synced, on_disk) in logs {
                let kept = cut_wal_tail(&path, synced, on_disk, &mut rng).unwrap();
                self.reach.torn_tails += u64::from(kept > synced);
            }
            self.reach.step_cuts += u64::from(cut.is_some());
            self.reach.merge_cuts += u64::from(cut == Some(true));
            self.reach.crashes += 1;
            self.faults.iter().for_each(|f| f.restore_power());
            self.incarnation += 1;
            self.front = open(self);
            let Front::Sharded(t, ..) = &self.front else { unreachable!("a crash subject routes") };
            let mut again = Vec::new();
            for (i, sent) in self.sent.iter_mut().enumerate() {
                let history = |acked: usize| {
                    let mut history = HistoryChecker::new();
                    for (j, req) in sent.iter().enumerate() {
                        let value = match req {
                            Request::Put(_, v) => Some(v.to_vec()),
                            Request::Delete(_) => None,
                        };
                        let status = if j < acked { AckStatus::Acked } else { AckStatus::Pending };
                        history.append(HistoryRecord { writer: 0, key: req.key(), value, status });
                    }
                    history
                };
                let judged = |acked| t.with_shard_read(i, |tree| judge(&history(acked), tree));
                let (prefix, _) =
                    judged(self.acked[i]).unwrap_or_else(|e| panic!("shard {i}: {e}"));
                // Nothing lost: every record marked acked judges the same.
                let lost = (prefix as usize) < sent.len();
                self.reach.ack_bugs += u64::from(lost && judged(sent.len()).is_err());
                again.extend(sent.split_off(prefix as usize));
            }
            self.ack();
            again.extend(unsent.cloned());
            again.iter().for_each(|req| self.send(req).unwrap());
            self.check(false);
        }

        /// `op`, its answers held against `model`, which holds `op` already.
        fn apply(&mut self, op: &Op, model: &Model) {
            let crashes = self.subject.crashes();
            match op {
                Op::Crash(burst, ahead) if crashes => return self.crash(burst, *ahead),
                Op::Write(_) | Op::Batch(_) if crashes => {
                    op.writes().iter().for_each(|r| self.note(r))
                }
                _ => {}
            }
            match (op, &mut self.front) {
                (Op::Get(k), Front::Tree(t, _)) => check_get(t, *k, model.get(k)),
                (Op::Get(k), front) => assert_eq!(front.get(*k).as_ref(), model.get(k), "get({k})"),
                (&Op::Scan(a, b, kind), front) => {
                    let fences = front.fences();
                    let fence = |i: Key| fences.get(i as usize % fences.len().max(1)).copied();
                    let (fa, fb) = (fence(a).unwrap_or(a), fence(b).unwrap_or(b));
                    // Anywhere, inverted, one key, open above, on fences, key to fence.
                    let bounds =
                        [(a, b), (a.max(b), a.min(b)), (a, a), (a, Key::MAX), (fa, fa.max(fb))];
                    let (lo, hi) = bounds.get(kind as usize).copied().unwrap_or((a.min(fb), fb));
                    let got = front.scan(lo, hi);
                    let want = model.range(lo..=hi.max(lo)).filter(|_| lo <= hi);
                    let want: Vec<(Key, Bytes)> = want.map(|(k, v)| (*k, v.clone())).collect();
                    assert!(got == want, "scan({lo}, {hi}) {}/{}", got.len(), want.len());
                    if let Front::Tree(t, true) = front {
                        let levels = t.levels().iter().filter(|l| !l.is_empty()).count();
                        self.reach.sealed_scans += u64::from(t.imm_count() > 0 && levels >= 2);
                    }
                }
                (Op::Refused(k, len), front) => {
                    // A worker may merge meanwhile: the requests are what must not move.
                    let before = (requests(&front.stats()), front.logs(&self.dir).0);
                    match front.write(op) {
                        Err(LsmError::PayloadTooLarge { payload_bytes, .. })
                            if payload_bytes == *len => {}
                        other => panic!("a {len}-byte put gave {other:?}"),
                    }
                    let trace = (requests(&front.stats()), front.logs(&self.dir).0) != before;
                    assert!(!trace && front.get(*k).as_ref() == model.get(k), "refused: trace");
                }
                (Op::Step, Front::Tree(t, true)) => _ = t.maintenance_step().unwrap(),
                (Op::Step, Front::Sharded(_, Some(sim), _)) => _ = sim.step(),
                (Op::Crash(burst, _), front) => {
                    burst.iter().for_each(|req| front.write(&Op::Write(req.clone())).unwrap())
                }
                (_, front) => front.write(op).unwrap(),
            }
            if let Op::Flush = op {
                self.ack();
            }
        }

        /// The end of a tape: drained, deep-verified, every put, delete and
        /// get (`asked`) counted once, and every key the model holds — and no
        /// other — found, on every shard the router's.
        fn finish(mut self, model: &Model, asked: [u64; 3]) -> Reach {
            self.front.write(&Op::Flush).unwrap();
            self.check(true);
            // A crash subject counts again what it replays and re-sends.
            let counted = requests(&self.counters());
            assert!(self.subject.crashes() || counted == asked, "puts, deletes, gets {counted:?}");
            if let Front::Sharded(t, ..) = &self.front {
                let totals = requests(&[t.stats()]) == requests(&self.front.stats());
                assert!(totals && t.record_count() >= model.len() as u64, "the router's totals");
                t.deep_verify(true).unwrap();
            }
            let want: Vec<(Key, Bytes)> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
            let got = self.front.scan(0, Key::MAX);
            assert!(got == want, "full scan: {} keys, the model {}", got.len(), want.len());
            let shards =
                self.front.trees(|t| t.scan(0, Key::MAX).collect::<Result<Vec<_>>>().unwrap());
            for (i, got) in shards.iter().enumerate() {
                let mine = want.iter().filter(|(k, _)| shard_index(*k, shards.len()) == i);
                assert!(got.iter().eq(mine), "shard {i} holds keys another shard should");
            }
            // Below the first block, at and beside every fence, above the last.
            if let Front::Tree(t, _) = &self.front {
                let fences = self.front.fences().into_iter().flat_map(|f| [f.max(1) - 1, f, f + 1]);
                fences.chain([0, Key::MAX]).for_each(|key| check_get(t, key, model.get(&key)));
            }
            self.retire_rows();
            self.reach.l0_fills +=
                self.counters().iter().map(|s| s.level(1).merges_in).sum::<u64>();
            let heights = self.front.trees(LsmTree::height).into_iter();
            self.reach.height = heights.chain([self.reach.height]).max().unwrap_or(0);
            drop(self.front);
            std::fs::remove_dir_all(&self.dir).ok();
            self.reach
        }
    }

    /// Relations 3 and 4 at one point of the tape: twins count the same
    /// and write the same blocks; over one store reopened alike, they read,
    /// trim and sync the same; logged ones log the same — with `logs` (the
    /// logs synced), the same bytes.
    fn compare(runs: &[Live], logs: bool) {
        for (i, a) in runs.iter().enumerate() {
            let twins = runs[..i].iter().filter(|b| b.subject.twin_key() == a.subject.twin_key());
            let pair = |b: &Live| format!("{:?} and {:?}", b.subject, a.subject);
            if let Some(b) = twins.clone().next() {
                assert!(a.counters() == b.counters(), "{}: counters", pair(b));
                assert_eq!(a.io(|io| io.writes), b.io(|io| io.writes), "{}: writes", pair(b));
            }
            let alike = |r: &Live| (r.subject.dev(), r.subject.reopens());
            if let Some(b) = twins.clone().find(|b| alike(b) == alike(a)) {
                assert_eq!(a.io(|io| io), b.io(|io| io), "{}: device counts", pair(b));
            }
            if let Some(b) = twins.clone().find(|b| b.subject.logged() && a.subject.logged()) {
                let (la, lb) = (a.front.logs(&a.dir), b.front.logs(&b.dir));
                assert!(la.0 == lb.0 && (!logs || la.1 == lb.1), "{}: logs", pair(b));
            }
        }
    }

    fn subject_policy(subject: &Subject) -> &PolicySpec {
        match subject {
            Subject::Tree { policy, .. } | Subject::Sharded { policy, .. } => policy,
            Subject::Routed { .. } => &PolicySpec::ChooseBest,
        }
    }

    /// `f` of every run, naming the run's subject if it panics.
    fn each(runs: &mut [Live], f: impl Fn(&mut Live)) {
        for run in runs {
            let subject = run.subject.clone();
            named(|| format!("{subject:?}"), || f(run));
        }
    }

    /// `op` on every subject — at a reopen, after a flush and a comparison
    /// of the logs — and every 64 ops, the trees verified and the subjects
    /// compared.
    fn step(runs: &mut [Live], i: usize, op: &Op, model: &Model) {
        if let Op::Reopen = op {
            each(runs, |run| run.front.write(&Op::Flush).unwrap());
            compare(runs, true);
            each(runs, Live::reopen);
        }
        each(runs, |run| {
            run.apply(op, model);
            if i % 64 == 63 {
                run.check(false);
            }
        });
        if i % 64 == 63 {
            compare(runs, false);
        }
    }

    #[test]
    fn every_front_end_matches_one_model() {
        let subjects = subjects();
        let mut reach: Vec<Reach> = subjects.iter().map(|_| Reach::default()).collect();
        let (mut batches, mut refused) = (BTreeSet::new(), BTreeSet::new());
        for seed in SEEDS {
            let mut runs: Vec<Live> = (subjects.iter().zip(&mut reach).enumerate())
                .map(|(j, (s, r))| Live::new(s.clone(), seed, j, std::mem::take(r)))
                .collect();
            let (mut model, mut asked) = (Model::new(), [0; 3]);
            for (i, op) in tape(seed).iter().enumerate() {
                asked[2] += u64::from(matches!(op, Op::Get(_) | Op::Refused(..)));
                match op {
                    Op::Batch(reqs) => _ = batches.insert(reqs.len()),
                    Op::Refused(_, len) => _ = refused.insert(*len),
                    _ => {}
                }
                for req in op.writes() {
                    asked[usize::from(matches!(req, Request::Delete(_)))] += 1;
                    match req {
                        Request::Put(k, v) => model.insert(*k, v.clone()),
                        Request::Delete(k) => model.remove(k),
                    };
                }
                let at = || format!("seed {seed:#x}, op {i} {:.80}", format!("{op:?}"));
                named(at, || step(&mut runs, i, op, &model));
            }
            // Synced, as at a reopen: unsynced, a log's file holds what its
            // buffer happened to spill.
            each(&mut runs, |run| run.front.write(&Op::Flush).unwrap());
            named(|| format!("seed {seed:#x}, at the end"), || compare(&runs, true));
            for (run, reach) in runs.into_iter().zip(&mut reach) {
                let at = format!("seed {seed:#x}, at the end, {:?}", run.subject);
                *reach = named(|| at, || run.finish(&model, asked));
            }
        }
        // What a weaker tape would stop showing.
        let reaches = &reach;
        for (subject, reach) in subjects.iter().zip(reaches) {
            assert!(reach.l0_fills >= 10, "{subject:?}: L0 filled {} times", reach.l0_fills);
            if subject.crashes() {
                // Per policy, over its crash subjects.
                let policy = subject_policy(subject);
                let mine = subjects.iter().zip(reaches);
                let mine = mine.filter(|(s, _)| s.crashes() && subject_policy(s) == policy);
                let sum = |f: fn(&Reach) -> u64| mine.clone().map(|(_, r)| f(r)).sum::<u64>();
                let counts = [sum(|r| r.crashes), sum(|r| r.step_cuts), sum(|r| r.torn_tails)];
                let caught = sum(|r| r.ack_bugs);
                let ok = counts[0] >= 5 && counts[1] >= 1 && counts[2] >= 1 && caught >= 1;
                assert!(ok, "{subject:?}: crashes, step cuts, torn tails {counts:?}; {caught}");
                let folds = reach.merge_cuts >= 1 || policy.fan_in().is_none();
                assert!(folds, "{subject:?}: no cut inside a fold");
            }
            let Subject::Tree { dev, .. } = subject else { continue };
            assert!(reach.height >= 3, "{subject:?}: grew {} levels", reach.height);
            let rows = reach.rows.iter().fold((0, 0), |(c, e), r| (c + r.current, e + r.earlier));
            let ok = if dev.cache == 4_096 { rows == (0, 0) } else { rows.0 > 0 };
            assert!(ok, "{subject:?}: rows answered {rows:?}, at their epoch and earlier");
        }
        let sealed = reach.iter().map(|r| r.sealed_scans).sum::<u64>();
        assert!(sealed > 0, "no scan met a sealed memtable and two levels");
        assert_eq!(batches, BATCHES.into_iter().collect(), "batch sizes applied");
        assert_eq!(refused, REFUSED.into_iter().collect(), "refused payloads tried");
    }
}
