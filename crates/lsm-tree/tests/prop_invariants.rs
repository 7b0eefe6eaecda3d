//! Property tests: the LSM-tree behaves exactly like a `BTreeMap` model
//! under arbitrary request sequences, for every policy, with and without
//! block preservation — and every structural invariant of §II-B holds at
//! every quiescent point.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use lsm_tree::observe::SinkHandle;
use lsm_tree::policy::MixedParams;
use lsm_tree::verify::check_tree;
use lsm_tree::{
    LsmConfig, LsmTree, MergeScheduler, PolicySpec, Record, Request, ShardedLsmTree, TreeOptions,
};
use sim_ssd::{BlockDevice, MemDevice};

#[derive(Debug, Clone)]
enum Op {
    Put(u64, u8),
    Delete(u64),
}

fn op_strategy(key_space: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..key_space, any::<u8>()).prop_map(|(k, v)| Op::Put(k, v)),
        2 => (0..key_space).prop_map(Op::Delete),
    ]
}

fn tiny_cfg() -> LsmConfig {
    LsmConfig {
        block_size: 256,
        payload_size: 4,
        k0_blocks: 2, // merges fire constantly: B = 14, L0 holds 28 records
        gamma: 3,
        cache_blocks: 32,
        merge_rate: 0.4,
        ..LsmConfig::default()
    }
}

fn tiny_tree(policy: PolicySpec, preserve: bool) -> LsmTree {
    LsmTree::with_mem_device(
        tiny_cfg(),
        TreeOptions::builder().policy(policy).preserve_blocks(preserve).build(),
        1 << 16,
    )
    .unwrap()
}

fn payload(v: u8) -> Vec<u8> {
    vec![v; 4]
}

fn run_against_model(policy: PolicySpec, preserve: bool, ops: &[Op], key_space: u64) {
    let mut tree = tiny_tree(policy.clone(), preserve);
    let mut model: BTreeMap<u64, u8> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Put(k, v) => {
                tree.apply(Request::Put(k, Bytes::from(payload(v)))).unwrap();
                model.insert(k, v);
            }
            Op::Delete(k) => {
                tree.apply(Request::Delete(k)).unwrap();
                model.remove(&k);
            }
        }
        // Periodic invariant checks (every op would be quadratic).
        if i % 64 == 63 {
            check_tree(&tree, false)
                .unwrap_or_else(|e| panic!("{policy:?} preserve={preserve} step {i}: {e}"));
        }
    }
    check_tree(&tree, true).unwrap_or_else(|e| panic!("{policy:?} preserve={preserve}: {e}"));

    // Point lookups agree with the model over the whole key space.
    for k in 0..key_space {
        let got = tree.get(k).unwrap();
        let want = model.get(&k).map(|&v| payload(v));
        assert_eq!(
            got.as_deref(),
            want.as_deref(),
            "{policy:?} preserve={preserve}: lookup({k}) diverged"
        );
    }

    // A full scan agrees with the model.
    let scanned: Vec<(u64, Vec<u8>)> =
        tree.scan(0, u64::MAX).map(|r| r.map(|(k, v)| (k, v.to_vec())).unwrap()).collect();
    let expect: Vec<(u64, Vec<u8>)> = model.iter().map(|(&k, &v)| (k, payload(v))).collect();
    assert_eq!(scanned, expect, "{policy:?} preserve={preserve}: scan diverged");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn full_policy_matches_model(ops in prop::collection::vec(op_strategy(300), 200..800)) {
        run_against_model(PolicySpec::Full, true, &ops, 300);
    }

    #[test]
    fn full_no_preserve_matches_model(ops in prop::collection::vec(op_strategy(300), 200..800)) {
        run_against_model(PolicySpec::Full, false, &ops, 300);
    }

    #[test]
    fn rr_policy_matches_model(ops in prop::collection::vec(op_strategy(300), 200..800)) {
        run_against_model(PolicySpec::RoundRobin, true, &ops, 300);
    }

    #[test]
    fn rr_no_preserve_matches_model(ops in prop::collection::vec(op_strategy(300), 200..800)) {
        run_against_model(PolicySpec::RoundRobin, false, &ops, 300);
    }

    #[test]
    fn choose_best_matches_model(ops in prop::collection::vec(op_strategy(300), 200..800)) {
        run_against_model(PolicySpec::ChooseBest, true, &ops, 300);
    }

    #[test]
    fn choose_best_no_preserve_matches_model(ops in prop::collection::vec(op_strategy(300), 200..800)) {
        run_against_model(PolicySpec::ChooseBest, false, &ops, 300);
    }

    #[test]
    fn test_mixed_matches_model(ops in prop::collection::vec(op_strategy(300), 200..800)) {
        run_against_model(PolicySpec::TestMixed, true, &ops, 300);
    }

    #[test]
    fn mixed_with_thresholds_matches_model(ops in prop::collection::vec(op_strategy(300), 200..800)) {
        let mut params = MixedParams { beta: false, default_tau: 0.5, ..MixedParams::default() };
        params.thresholds.insert(2, 0.3);
        params.thresholds.insert(3, 0.7);
        run_against_model(PolicySpec::Mixed(params), true, &ops, 300);
    }

    /// Skewed key distributions stress the window-selection paths.
    #[test]
    fn clustered_keys_match_model(
        ops in prop::collection::vec(
            prop_oneof![
                3 => (0u64..40, any::<u8>()).prop_map(|(k, v)| Op::Put(k * 2, v)),
                2 => (0u64..40, any::<u8>()).prop_map(|(k, v)| Op::Put(10_000 + k, v)),
                2 => (0u64..40).prop_map(|k| Op::Delete(k * 2)),
                1 => (0u64..40).prop_map(|k| Op::Delete(10_000 + k)),
            ],
            200..700,
        )
    ) {
        let mut tree = tiny_tree(PolicySpec::ChooseBest, true);
        let mut model: BTreeMap<u64, u8> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Put(k, v) => {
                    tree.apply(Request::Put(k, Bytes::from(payload(v)))).unwrap();
                    model.insert(k, v);
                }
                Op::Delete(k) => {
                    tree.apply(Request::Delete(k)).unwrap();
                    model.remove(&k);
                }
            }
        }
        check_tree(&tree, true).unwrap();
        let scanned: Vec<u64> = tree.scan(0, u64::MAX).map(|r| r.unwrap().0).collect();
        let expect: Vec<u64> = model.keys().copied().collect();
        prop_assert_eq!(scanned, expect);
    }

    /// Sequential (bulk-load-like) inserts followed by range deletes.
    #[test]
    fn sequential_load_matches_model(n in 100usize..600, delete_every in 2usize..6) {
        let mut tree = tiny_tree(PolicySpec::ChooseBest, true);
        let mut model: BTreeMap<u64, u8> = BTreeMap::new();
        for k in 0..n as u64 {
            tree.put(k, payload(k as u8)).unwrap();
            model.insert(k, k as u8);
        }
        for k in (0..n as u64).step_by(delete_every) {
            tree.delete(k).unwrap();
            model.remove(&k);
        }
        check_tree(&tree, true).unwrap();
        for k in 0..n as u64 {
            prop_assert_eq!(tree.get(k).unwrap().is_some(), model.contains_key(&k));
        }
    }

    /// Bounded scans with every kind of source holding versions of the same
    /// keys — the live memtable, sealed memtables (some partly flushed) and
    /// at least two levels — agree with `BTreeMap::range`, on one tree and
    /// merged across three shards.
    #[test]
    fn bounded_scans_match_model_with_every_source_present(
        settled in prop::collection::vec(op_strategy(400), 500..1_200),
        sealed in prop::collection::vec(op_strategy(400), 30..150),
        steps in 0usize..6,
        recent in prop::collection::vec(op_strategy(400), 4..40),
        bounds in prop::collection::vec((0u64..440, 0u64..440, 0u8..6), 24..25),
        seed in any::<u64>(),
    ) {
        let mut tree = tiny_tree(PolicySpec::ChooseBest, true);
        let mut model: BTreeMap<u64, u8> = BTreeMap::new();
        let mut buffer = |tree: &mut LsmTree, op: &Op| match *op {
            Op::Put(k, v) => {
                tree.apply_buffered(Request::Put(k, Bytes::from(payload(v)))).unwrap();
                model.insert(k, v);
            }
            Op::Delete(k) => {
                tree.apply_buffered(Request::Delete(k)).unwrap();
                model.remove(&k);
            }
        };
        // All the way down: the levels.
        for op in &settled {
            buffer(&mut tree, op);
            if tree.mem_at_capacity() {
                tree.seal_memtable();
                tree.drain_maintenance().unwrap();
            }
        }
        // Sealed, and flushed a few windows at most.
        for op in &sealed {
            buffer(&mut tree, op);
            if tree.mem_at_capacity() {
                tree.seal_memtable();
            }
        }
        for _ in 0..steps {
            tree.maintenance_step().unwrap();
        }
        // One more sealed memtable, never flushed, and a live one.
        let (older, newer) = recent.split_at(recent.len() / 2);
        older.iter().for_each(|op| buffer(&mut tree, op));
        prop_assert!(tree.seal_memtable());
        newer.iter().for_each(|op| buffer(&mut tree, op));
        prop_assert!(tree.imm_count() >= 1 && !tree.memtable().is_empty());
        prop_assert!(tree.levels().iter().filter(|l| !l.is_empty()).count() >= 2);

        // Anywhere, inverted, one key, open above, and on the fences.
        let fences: Vec<u64> = tree
            .levels()
            .iter()
            .flat_map(|l| l.handles().iter().flat_map(|h| [h.min, h.max]))
            .collect();
        let fence = |i: u64| fences[i as usize % fences.len()];
        let bounds: Vec<(u64, u64)> = bounds
            .into_iter()
            .map(|(a, b, kind)| match kind {
                0 => (a, b),
                1 => (a.max(b), a.min(b)),
                2 => (a, a),
                3 => (a, u64::MAX),
                4 => (fence(a), fence(a).max(fence(b))),
                _ => (a.min(fence(b)), fence(b)),
            })
            .collect();
        let expect = |lo: u64, hi: u64| -> Vec<(u64, Vec<u8>)> {
            if lo > hi {
                return Vec::new();
            }
            model.range(lo..=hi).map(|(&k, &v)| (k, payload(v))).collect()
        };
        for &(lo, hi) in &bounds {
            let got: Vec<(u64, Vec<u8>)> =
                tree.scan(lo, hi).map(|r| r.map(|(k, v)| (k, v.to_vec())).unwrap()).collect();
            prop_assert_eq!(got, expect(lo, hi), "scan({}, {})", lo, hi);
        }

        // The same tapes through three shards whose maintenance a seeded
        // scheduler steps inside the writers' calls: sealed memtables come
        // and go, and every scan is merged across the shards.
        let devices = (0..3)
            .map(|_| Arc::new(MemDevice::with_block_size(1 << 14, 256)) as Arc<dyn BlockDevice>)
            .collect();
        let sim = Arc::new(MergeScheduler::simulated(2, seed, SinkHandle::none()));
        let sharded =
            ShardedLsmTree::with_backend(tiny_cfg(), TreeOptions::default(), devices, None, Some(sim))
                .unwrap();
        for op in settled.iter().chain(&sealed).chain(&recent) {
            match *op {
                Op::Put(k, v) => sharded.put(k, payload(v)).unwrap(),
                Op::Delete(k) => sharded.delete(k).unwrap(),
            }
        }
        for &(lo, hi) in &bounds {
            let got: Vec<(u64, Vec<u8>)> = sharded
                .scan_collect(lo, hi)
                .unwrap()
                .into_iter()
                .map(|(k, v)| (k, v.to_vec()))
                .collect();
            prop_assert_eq!(got, expect(lo, hi), "scan_collect({}, {})", lo, hi);
        }
    }

    /// A get through the level's packed index finds, reads and skips
    /// exactly what a walk over the handles themselves does.
    #[test]
    fn get_probes_what_a_walk_over_the_handles_would(
        bloom_bits_per_key in prop_oneof![Just(0usize), Just(10)],
        ops in prop::collection::vec(lookup_op(), 300..900),
    ) {
        let cfg = LsmConfig { cache_blocks: 8, bloom_bits_per_key, ..tiny_cfg() };
        let opts = || TreeOptions::builder().policy(PolicySpec::ChooseBest).build();
        let device: Arc<dyn BlockDevice> = Arc::new(MemDevice::with_block_size(1 << 14, 256));
        let mut tree = LsmTree::new(cfg, opts(), Arc::clone(&device)).unwrap();
        // Every other key of 100..1100: four levels, and gaps everywhere.
        for i in 0..500u64 {
            tree.put(100 + 2 * i, payload(i as u8)).unwrap();
        }
        prop_assert!(tree.height() >= 4, "height {}", tree.height());
        let manifest = std::env::temp_dir()
            .join(format!("lsm-prop-lookup-{}-{bloom_bits_per_key}.manifest", std::process::id()));

        let check_get = |tree: &LsmTree, key: u64| {
            let (want, reads, skips) = walk_the_handles(tree, key);
            let stats = tree.stats();
            let before = (stats.lookups(), stats.lookup_block_reads(), stats.bloom_skips());
            prop_assert_eq!(tree.get(key).unwrap(), want, "get({})", key);
            prop_assert_eq!(
                (stats.lookups(), stats.lookup_block_reads(), stats.bloom_skips()),
                (before.0 + 1, before.1 + reads, before.2 + skips),
                "lookups / block reads / bloom skips of get({})", key
            );
        };
        for op in ops {
            match op {
                LookupOp::Put(k, v) => tree.put(k, payload(v)).unwrap(),
                LookupOp::Delete(k) => tree.delete(k).unwrap(),
                LookupOp::Get(k) => check_get(&tree, k),
                // Handles come back from a manifest without their filters;
                // blocks written from here on bring theirs.
                LookupOp::Reopen => {
                    tree.checkpoint(&manifest).unwrap();
                    tree = LsmTree::restore(&manifest, opts(), Arc::clone(&device)).unwrap();
                }
            }
        }
        check_tree(&tree, true).unwrap();
        // Below the first block, every gap, above the last block.
        for key in 0..1_300 {
            check_get(&tree, key);
        }
        let _ = std::fs::remove_file(&manifest);
    }

    /// What the buffer cache holds — whole blocks where the data fits,
    /// mostly rows (what a get's level walk found) where it does not —
    /// changes no answer and no logical cost: a lookup counts a block read
    /// for every block it asks, or its row's walk asked, whatever answered.
    /// Gets that ask again for recently read keys, across the puts, the
    /// installs they trigger and reopens, are what rows answer — at their
    /// epoch, or for their block once an install moved it on: the two small
    /// budgets serve some at their epoch, the one the data fits in none.
    #[test]
    fn the_cache_budget_changes_no_answer_and_no_logical_cost(
        ops in prop::collection::vec(tape_op(), 300..900),
    ) {
        const BUDGETS: [usize; 3] = [1, 8, 4_096];
        // 1 KiB blocks: a cached record of a 4-byte payload is lighter than
        // a block, so a get that misses a full cache keeps the record.
        let block_size = 1_024;
        let opts = || TreeOptions::builder().policy(PolicySpec::ChooseBest).build();
        let mut trees: Vec<(LsmTree, Arc<dyn BlockDevice>, std::path::PathBuf)> = BUDGETS
            .iter()
            .map(|&cache_blocks| {
                let cfg =
                    LsmConfig { block_size, cache_blocks, bloom_bits_per_key: 10, ..tiny_cfg() };
                let device: Arc<dyn BlockDevice> =
                    Arc::new(MemDevice::with_block_size(1 << 12, block_size));
                let manifest = std::env::temp_dir().join(format!(
                    "lsm-prop-budget-{}-{cache_blocks}.manifest",
                    std::process::id()
                ));
                (LsmTree::new(cfg, opts(), Arc::clone(&device)).unwrap(), device, manifest)
            })
            .collect();
        // Per budget: gets a row answered at its epoch, and at its block.
        let mut row_hits = [(0u64, 0u64); 3];
        // The keys of the last few gets, newest last.
        let mut recent: Vec<u64> = Vec::new();
        let preload = (0..1_000u64).map(|i| LookupOp::Put(100 + i, i as u8)).map(TapeOp::Point);
        for op in preload.chain(ops) {
            let get = match op {
                TapeOp::Point(LookupOp::Get(k)) => Some(k),
                TapeOp::Again(nth) if !recent.is_empty() => {
                    Some(recent[recent.len() - 1 - nth % recent.len()])
                }
                _ => None,
            };
            if let Some(k) = get {
                recent.retain(|&r| r != k);
                recent.push(k);
                if recent.len() > 4 {
                    recent.remove(0);
                }
            }
            let mut outcomes = Vec::new();
            for (i, (tree, device, manifest)) in trees.iter_mut().enumerate() {
                let mut answer: Vec<(u64, Option<Bytes>)> = Vec::new();
                match (get, &op) {
                    (Some(k), _) => {
                        let before = tree.store().row_hits();
                        answer.push((k, tree.get(k).unwrap()));
                        let after = tree.store().row_hits();
                        row_hits[i].0 += after.current - before.current;
                        row_hits[i].1 += after.earlier - before.earlier;
                    }
                    (None, TapeOp::Point(LookupOp::Put(k, v))) => tree.put(*k, payload(*v)).unwrap(),
                    (None, TapeOp::Point(LookupOp::Delete(k))) => tree.delete(*k).unwrap(),
                    (None, TapeOp::Point(LookupOp::Reopen)) => {
                        tree.checkpoint(&*manifest).unwrap();
                        *tree = LsmTree::restore(&*manifest, opts(), Arc::clone(device)).unwrap();
                    }
                    (None, TapeOp::Scan(lo, hi)) => {
                        answer.extend(tree.scan(*lo, *hi).map(|kv| kv.unwrap()).map(|(k, v)| (k, Some(v))))
                    }
                    // Asked again before anything was asked.
                    (None, TapeOp::Point(LookupOp::Get(_)) | TapeOp::Again(_)) => {}
                }
                let (stats, cache) = (tree.stats(), tree.store().cache_stats());
                prop_assert!(cache.resident <= cache.capacity);
                outcomes.push((answer, stats.lookups(), stats.lookup_block_reads(), stats.bloom_skips()));
            }
            prop_assert_eq!(&outcomes[0], &outcomes[1], "budgets 1 and 8 at {:?}", op);
            prop_assert_eq!(&outcomes[0], &outcomes[2], "budgets 1 and 4096 at {:?}", op);
        }
        prop_assert!(
            row_hits[0].0 > 0 && row_hits[1].0 > 0 && row_hits[2] == (0, 0),
            "row hits at budgets {:?}: {:?}", BUDGETS, row_hits
        );
        for (tree, _, manifest) in &trees {
            check_tree(tree, true).unwrap();
            let _ = std::fs::remove_file(manifest);
        }
    }
}

#[derive(Debug, Clone)]
enum LookupOp {
    Put(u64, u8),
    Delete(u64),
    Get(u64),
    Reopen,
}

fn lookup_op() -> impl Strategy<Value = LookupOp> {
    prop_oneof![
        50 => (90u64..1_150, any::<u8>()).prop_map(|(k, v)| LookupOp::Put(k, v)),
        15 => (90u64..1_150).prop_map(LookupOp::Delete),
        40 => (0u64..1_300).prop_map(LookupOp::Get),
        1 => Just(LookupOp::Reopen),
    ]
}

/// A point operation, a scan of `[lo, hi]`, or a get of the key the
/// `nth`-newest of the last few gets asked for.
#[derive(Debug, Clone)]
enum TapeOp {
    Point(LookupOp),
    Scan(u64, u64),
    Again(usize),
}

fn tape_op() -> impl Strategy<Value = TapeOp> {
    prop_oneof![
        20 => lookup_op().prop_map(TapeOp::Point),
        1 => (0u64..1_300, 0u64..120).prop_map(|(lo, width)| TapeOp::Scan(lo, lo + width)),
        8 => (0usize..4).prop_map(TapeOp::Again),
    ]
}

/// The lookup as it was before levels had a search index: binary search
/// over the handles, each handle's own filter. Returns the visible value,
/// the blocks read and the filter skips.
fn walk_the_handles(tree: &LsmTree, key: u64) -> (Option<Bytes>, u64, u64) {
    let visible = |r: &Record| (!r.is_tombstone()).then(|| r.payload.clone());
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
        if let Some(r) = tree.store().read_block(handle).unwrap().find(key) {
            return (visible(&r), reads, skips);
        }
    }
    (None, reads, skips)
}
