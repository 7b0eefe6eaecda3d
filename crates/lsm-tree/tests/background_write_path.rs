//! The background write path, end to end: logical equivalence between
//! `Scheduler::Inline` and `Scheduler::Background`, crash recovery with a
//! merge job in flight, and the group-commit fsync contract.
//!
//! Background scheduling is intentionally nondeterministic in *timing* —
//! workers interleave with writers — so these tests compare **logical
//! content** (full scans, point lookups) rather than device images. The
//! deterministic byte-level contracts stay with the Inline suites
//! (torture harness, twin tests, observe_events).

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use lsm_tree::observe::SinkHandle;
use lsm_tree::{
    BackgroundPolicy, CommitMode, Key, LsmConfig, PolicySpec, Request, Scheduler, ShardedLsmTree,
    TreeOptions, WriteBatch,
};

fn cfg() -> LsmConfig {
    LsmConfig {
        block_size: 256,
        payload_size: 4,
        k0_blocks: 4,
        gamma: 4,
        cache_blocks: 64,
        merge_rate: 0.25,
        ..LsmConfig::default()
    }
}

fn opts(scheduler: Scheduler) -> TreeOptions {
    TreeOptions::builder().policy(PolicySpec::ChooseBest).scheduler(scheduler).build()
}

/// Seeded mixed single-threaded workload; returns the model.
fn mixed_ops(seed: u64, n: u64, key_space: u64) -> Vec<Request> {
    let mut x = seed | 1;
    let mut ops = Vec::with_capacity(n as usize);
    for i in 0..n {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let key = (x >> 17) % key_space;
        if i % 9 == 8 {
            ops.push(Request::Delete(key));
        } else {
            ops.push(Request::Put(key, Bytes::from(vec![(key % 251) as u8; 4])));
        }
    }
    ops
}

fn model_of(ops: &[Request]) -> BTreeMap<Key, Bytes> {
    let mut m = BTreeMap::new();
    for op in ops {
        match op {
            Request::Put(k, v) => {
                m.insert(*k, v.clone());
            }
            Request::Delete(k) => {
                m.remove(k);
            }
        }
    }
    m
}

/// Shard equivalence under the background pool: concurrent writers on
/// disjoint key ranges, drained, must equal the single-threaded model —
/// and the same workload under `Scheduler::Inline`.
#[test]
fn sharded_equivalence_holds_under_background_pool() {
    let writers = 4u64;
    let per_writer = 6_000u64;
    let run = |sched: Scheduler| {
        let tree = ShardedLsmTree::with_mem_devices(cfg(), opts(sched), 4, 1 << 16).unwrap();
        std::thread::scope(|s| {
            for w in 0..writers {
                let tree = &tree;
                s.spawn(move || {
                    let base = 1_000_000 * (w + 1);
                    let mut x = 0x9E37_79B9u64 + w;
                    for _ in 0..per_writer {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let key = base + (x >> 20) % 3_000;
                        if x.is_multiple_of(8) {
                            tree.delete(key).unwrap();
                        } else {
                            tree.put(key, vec![(key % 251) as u8; 4]).unwrap();
                        }
                    }
                });
            }
        });
        tree.flush().unwrap();
        tree.deep_verify(true).unwrap();
        tree.scan_collect(0, u64::MAX).unwrap()
    };
    let background = run(Scheduler::background());
    let inline = run(Scheduler::Inline);
    // Writers own disjoint ranges and are individually deterministic, so
    // the final logical content is schedule-independent.
    assert!(!background.is_empty());
    assert_eq!(inline, background, "background pool diverged from inline on identical writers");
}

/// The same equivalence on real backing files, with readers beside the
/// writers: four writers on disjoint ranges and two readers over two
/// `FileDevice` shards (batched pread/pwrite end to end), inline and with
/// the background pool. Every shard passes the deep verify — blocks
/// re-read from the files and re-checked — and the content equals the
/// in-memory run of the same writers. (This is what the deleted
/// sharded-throughput bench's `--backend=file` smoke asserted.)
#[test]
fn file_backed_shards_hold_under_concurrent_writers_and_readers() {
    use sim_ssd::{BlockDevice, FileDevice, MemDevice};
    let dir = std::env::temp_dir().join(format!("lsm-bg-file-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |sched: Scheduler, files: Option<&str>| {
        let devices: Vec<Arc<dyn BlockDevice>> = (0..2)
            .map(|i| match files {
                Some(tag) => Arc::new(
                    FileDevice::create_with_block_size(
                        dir.join(format!("{tag}-{i}.dev")),
                        1 << 16,
                        256,
                    )
                    .unwrap(),
                ) as Arc<dyn BlockDevice>,
                None => Arc::new(MemDevice::with_block_size(1 << 16, 256)),
            })
            .collect();
        let tree = ShardedLsmTree::with_devices(cfg(), opts(sched), devices).unwrap();
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let tree = &tree;
                s.spawn(move || {
                    let base = 1_000_000 * (w + 1);
                    let mut x = 0x9E37_79B9u64 + w;
                    for _ in 0..4_000 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let key = base + (x >> 20) % 3_000;
                        if x.is_multiple_of(8) {
                            tree.delete(key).unwrap();
                        } else {
                            tree.put(key, vec![(key % 251) as u8; 4]).unwrap();
                        }
                    }
                });
            }
            for r in 0..2u64 {
                let tree = &tree;
                s.spawn(move || {
                    let mut x = 0xBEE5 + r;
                    for _ in 0..2_000 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let key = 1_000_000 * (1 + (x >> 40) % 4) + (x >> 20) % 3_000;
                        if let Some(v) = tree.get(key).unwrap() {
                            assert_eq!(v[..], [(key % 251) as u8; 4], "key {key} read garbage");
                        }
                    }
                });
            }
        });
        tree.flush().unwrap();
        tree.deep_verify(true).unwrap();
        tree.scan_collect(0, u64::MAX).unwrap()
    };
    let expected = run(Scheduler::Inline, None);
    assert!(!expected.is_empty());
    assert_eq!(run(Scheduler::Inline, Some("inline")), expected, "file-backed inline diverged");
    assert_eq!(run(Scheduler::background(), Some("bg")), expected, "file-backed pool diverged");
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash with merge jobs in flight: writers run under `Group` commit
/// (durable by return), the host "dies" without draining the scheduler,
/// and recovery from the WALs alone must reproduce every acknowledged
/// request — whatever the background workers were doing at the cut.
#[test]
fn power_cut_with_merge_job_in_flight_recovers_durable_image() {
    let dir = std::env::temp_dir().join(format!("lsm-bg-cut-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let shards = 3;
    let build_opts = || {
        TreeOptions::builder()
            .policy(PolicySpec::ChooseBest)
            .scheduler(Scheduler::Background(BackgroundPolicy { workers: 2, max_imm_memtables: 2 }))
            .group_commit(CommitMode::Group)
            .build()
    };
    let ops = mixed_ops(0xCAFE, 8_000, 2_048);
    let tree = ShardedLsmTree::with_wal_dir(cfg(), build_opts(), shards, 1 << 16, &dir).unwrap();
    for op in &ops {
        tree.apply(op.clone()).unwrap();
    }
    // Power cut: leak the tree — scheduler threads, sealed memtables, and
    // any merge mid-step die with the host. No drain, no final sync; the
    // WAL files on disk are the only survivors. (Group commit means every
    // acknowledged request is already fsynced.)
    std::mem::forget(tree);

    let recovered =
        ShardedLsmTree::recover_with_wal(cfg(), build_opts(), shards, 1 << 16, &dir).unwrap();
    recovered.flush().unwrap();
    recovered.deep_verify(true).unwrap();
    let got = recovered.scan_collect(0, u64::MAX).unwrap();
    let model = model_of(&ops);
    assert_eq!(got.len(), model.len(), "recovered key count diverged");
    for (k, v) in &got {
        assert_eq!(model.get(k), Some(v), "recovered key {k} diverged");
    }
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

/// Restart from levels: two `FileDevice` shards under the background pool
/// write ten checkpoint intervals with a checkpoint after each, then half
/// an interval more, and crash. Recovery over the same files restores
/// every shard's levels block for block from its manifest, replays at most
/// one interval of log, and loses no acked key.
#[test]
fn a_restart_restores_the_levels_and_replays_one_interval() {
    use lsm_tree::observe::MetricsSink;
    use sim_ssd::{BlockDevice, FileDevice};
    const INTERVAL: u64 = 100;
    let dir = std::env::temp_dir().join(format!("lsm-bg-restart-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let devices = |create: bool| -> Vec<Arc<dyn BlockDevice>> {
        (0..2)
            .map(|i| {
                let path = dir.join(format!("shard-{i}.dev"));
                let dev = match create {
                    true => FileDevice::create_with_block_size(path, 1 << 14, 256),
                    false => FileDevice::open(path, 256),
                };
                Arc::new(dev.unwrap()) as Arc<dyn BlockDevice>
            })
            .collect()
    };
    let levels = |t: &ShardedLsmTree| -> Vec<Vec<usize>> {
        (0..t.shard_count())
            .map(|i| t.with_shard_read(i, |t| t.levels().iter().map(|l| l.num_blocks()).collect()))
            .collect()
    };
    let value = |k: u64| vec![(k % 251) as u8; 4];
    let bg = opts(Scheduler::background());
    let tree = ShardedLsmTree::with_backend(cfg(), bg, devices(true), Some(&dir), None).unwrap();
    let mut written = Vec::new();
    let mut put = |k: u64| {
        tree.put(k, value(k)).unwrap();
        written.push(k);
    };
    let l0_holds = |i: usize| tree.with_shard_read(i, |t| !t.memtable().is_empty());
    let mut keys = 0u64..;
    for _ in 0..10 {
        keys.by_ref().take(INTERVAL as usize).for_each(&mut put);
        // Top every shard's memtable up until it seals, so that the
        // checkpoint finds L0 empty once the flush has drained it: then
        // no tail of under a memtable seals, and the levels stand still.
        while (0..2).any(l0_holds) {
            let k = keys.next().unwrap();
            if l0_holds(tree.shard_of(k)) {
                put(k);
            }
        }
        tree.flush().unwrap();
        tree.checkpoint().unwrap();
    }
    let checkpointed = levels(&tree);
    keys.take(INTERVAL as usize / 2).for_each(&mut put);
    tree.sync_wals().unwrap(); // every put acked
    let before = levels(&tree);
    assert_eq!(before, checkpointed, "the tail sealed no memtable");
    assert!(before.iter().all(|shard| shard.len() >= 2), "levels to restore: {before:?}");
    std::mem::forget(tree); // crash

    let metrics = Arc::new(MetricsSink::new());
    let counts = metrics.metrics();
    let opts = TreeOptions::builder()
        .policy(PolicySpec::ChooseBest)
        .scheduler(Scheduler::background())
        .sink(SinkHandle::new(metrics))
        .build();
    let r = ShardedLsmTree::recover_with_backend(cfg(), opts, devices(false), &dir, None).unwrap();
    assert_eq!(counts.counter("durability.recoveries"), 2);
    let replayed = counts.counter("durability.replayed_requests");
    assert!(replayed <= INTERVAL, "replayed {replayed} requests, more than an interval");
    assert_eq!(replayed, INTERVAL / 2);
    assert_eq!(levels(&r), before, "recovered level shapes differ");
    for k in written {
        assert_eq!(r.get(k).unwrap().as_deref(), Some(&value(k)[..]), "acked key {k}");
    }
    r.deep_verify(true).unwrap();
    drop(r);
    std::fs::remove_dir_all(&dir).ok();
}

/// Group commit's acceptance contract: one writer applying request by
/// request pays one fsync a request; 4 concurrent writers committing
/// batches need at most half as many, and both recover to identical state.
#[test]
fn group_commit_halves_fsyncs_at_4_writers_with_identical_recovery() {
    let base = std::env::temp_dir().join(format!("lsm-group-commit-{}", std::process::id()));
    let writers = 4u64;
    let batches_per_writer = 25u64;
    let batch_size = 40u64;
    let shards = 2;
    // Writer `w`'s batches: keys of its own range, so that the order in
    // which writers interleave cannot change the final state.
    let batches = |w: u64| -> Vec<WriteBatch> {
        let base_key = 500_000 * (w + 1);
        let mut x = w + 1;
        (0..batches_per_writer)
            .map(|_| {
                let mut wb = WriteBatch::with_capacity(batch_size as usize);
                for _ in 0..batch_size {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    wb.put(base_key + (x >> 22) % 5_000, vec![(x % 251) as u8; 4]);
                }
                wb
            })
            .collect()
    };

    let run = |batched: bool, sub: &str| -> (u64, Vec<(Key, Bytes)>) {
        let dir = base.join(sub);
        std::fs::create_dir_all(&dir).unwrap();
        let build_opts = || {
            TreeOptions::builder()
                .policy(PolicySpec::ChooseBest)
                .scheduler(Scheduler::background())
                .group_commit(CommitMode::Group)
                .build()
        };
        let tree =
            ShardedLsmTree::with_wal_dir(cfg(), build_opts(), shards, 1 << 16, &dir).unwrap();
        if batched {
            std::thread::scope(|s| {
                for w in 0..writers {
                    let tree = &tree;
                    s.spawn(move || {
                        batches(w).into_iter().for_each(|b| tree.write_batch(b).unwrap())
                    });
                }
            });
        } else {
            for req in (0..writers).flat_map(batches).flatten() {
                tree.apply(req).unwrap();
            }
        }
        let fsyncs = tree.wal_fsyncs();
        tree.flush().unwrap(); // final durability point before "restart"
        drop(tree);
        let recovered =
            ShardedLsmTree::recover_with_wal(cfg(), build_opts(), shards, 1 << 16, &dir).unwrap();
        recovered.flush().unwrap();
        (fsyncs, recovered.scan_collect(0, u64::MAX).unwrap())
    };

    let (single_fsyncs, single_state) = run(false, "one-by-one");
    let (group_fsyncs, group_state) = run(true, "group");

    // Alone, every acknowledged request leads a sync of its own; batched
    // group commit needs at most one rendezvous per touched shard per batch.
    assert_eq!(single_fsyncs, writers * batches_per_writer * batch_size);
    assert!(
        group_fsyncs * 2 <= single_fsyncs,
        "group commit must at least halve fsyncs: {group_fsyncs} vs {single_fsyncs}"
    );
    assert_eq!(single_state, group_state, "both must recover to identical state");
    assert!(!group_state.is_empty());
    std::fs::remove_dir_all(&base).ok();
}

/// `write_batch` under group commit waits on the WAL offsets *its own*
/// appends returned: the moment a batch returns, the logs cut to their
/// synced lengths must already hold every request of that batch — however
/// the other three writers' appends interleave. Each writer snapshots the
/// synced lengths right after its last batch; recovery from logs cut there
/// must contain that writer's whole history, and the cut at the end the
/// model of all four. The fsync economy holds: ≤ 2000 fsyncs for 4000 puts.
#[test]
fn group_batches_are_durable_when_write_batch_returns() {
    let dir = std::env::temp_dir().join(format!("lsm-group-own-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (writers, batches, batch_size, shards) = (4u64, 25u64, 40u64, 2usize);
    let build_opts = || {
        TreeOptions::builder()
            .policy(PolicySpec::ChooseBest)
            .scheduler(Scheduler::background())
            .group_commit(CommitMode::Group)
            .build()
    };
    let writer_ops = |w: u64| -> Vec<Request> {
        mixed_ops(w + 1, batches * batch_size, 900)
            .into_iter()
            .map(|r| match r {
                Request::Put(k, v) => Request::Put(500_000 * (w + 1) + k, v),
                Request::Delete(k) => Request::Delete(500_000 * (w + 1) + k),
            })
            .collect()
    };
    let tree = ShardedLsmTree::with_wal_dir(cfg(), build_opts(), shards, 1 << 16, &dir).unwrap();
    let acked_at: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let tree = &tree;
                s.spawn(move || {
                    for batch in writer_ops(w).chunks(batch_size as usize) {
                        tree.write_batch(batch.iter().cloned().collect()).unwrap();
                    }
                    tree.wal_synced_lens()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(tree.wal_fsyncs() <= 2_000, "group commit lost its economy: {}", tree.wal_fsyncs());
    let final_cut = tree.wal_synced_lens();
    std::mem::forget(tree); // crash: no flush, no final sync

    // Recover from a copy of the logs cut to `lens`; return the content.
    let recover_cut = |lens: &[u64], sub: &str| {
        let cut = dir.join(sub);
        std::fs::create_dir_all(&cut).unwrap();
        for (i, &len) in lens.iter().enumerate() {
            let name = format!("shard-{i}.wal");
            let bytes = std::fs::read(dir.join(&name)).unwrap();
            assert!(bytes.len() as u64 >= len, "synced length beyond the file");
            std::fs::write(cut.join(&name), &bytes[..len as usize]).unwrap();
        }
        let r = ShardedLsmTree::recover_with_wal(cfg(), build_opts(), shards, 1 << 16, &cut)
            .expect("recover from the cut logs");
        r.flush().unwrap();
        r.scan_collect(0, u64::MAX).unwrap().into_iter().collect::<BTreeMap<_, _>>()
    };
    let mut everything = BTreeMap::new();
    for (w, lens) in acked_at.iter().enumerate() {
        let mine = model_of(&writer_ops(w as u64));
        let got = recover_cut(lens, &format!("cut-{w}"));
        for (k, v) in &mine {
            assert_eq!(got.get(k), Some(v), "writer {w}: acked key {k} lost at its own cut");
        }
        everything.extend(mine);
    }
    assert_eq!(recover_cut(&final_cut, "cut-final"), everything, "final cut diverged");
    std::fs::remove_dir_all(&dir).ok();
}

/// The scheduler's event vocabulary is live: a sustained workload under a
/// tight immutable-memtable bound seals memtables (`FlushEnqueued`) and
/// the worker picks them up (`JobStart`).
#[test]
fn scheduler_events_are_emitted() {
    let counting = Arc::new(lsm_tree::observe::MetricsSink::new());
    let counts = counting.metrics();
    let tree_opts = TreeOptions::builder()
        .policy(PolicySpec::ChooseBest)
        .scheduler(Scheduler::Background(BackgroundPolicy { workers: 1, max_imm_memtables: 1 }))
        .sink(SinkHandle::new(counting))
        .build();
    let tree = ShardedLsmTree::with_mem_devices(cfg(), tree_opts, 1, 1 << 16).unwrap();
    for op in mixed_ops(0xF00D, 30_000, 8_192) {
        tree.apply(op).unwrap();
    }
    tree.flush().unwrap();
    assert!(counts.counter("scheduler.flushes_enqueued") > 0, "workload never sealed a memtable");
    assert!(counts.counter("scheduler.job_starts") > 0, "scheduler never started a job");
}

/// The read side of the unlocked merge: gets and scans run *beside* the
/// worker's compute and between its installs, hundreds of them per shard.
/// One writer bumps per-key versions; two readers check that a get never
/// misses a live key and never returns a version older than the last one
/// acknowledged before the get began, and that a scan is sorted,
/// duplicate-free and complete for the keys that are never deleted.
#[test]
fn reads_stay_correct_across_hundreds_of_installs() {
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

    const KEYS: u64 = 400;
    let version_of = |v: &Bytes| u32::from_le_bytes(v[..4].try_into().unwrap());
    // Even keys are only ever overwritten; odd keys are also deleted, so
    // tombstones travel down beside the records the readers check.
    let stable = |k: Key| k.is_multiple_of(2);

    for (shards, ops) in [(1usize, 8_000u64), (4, 30_000)] {
        let policy = BackgroundPolicy { workers: 2, max_imm_memtables: 2 };
        let tree = ShardedLsmTree::with_mem_devices(
            LsmConfig { k0_blocks: 1, ..cfg() }, // 14 records: a seal every few puts
            opts(Scheduler::Background(policy)),
            shards,
            1 << 16,
        )
        .unwrap();
        for k in 0..KEYS {
            tree.put(k, 0u32.to_le_bytes().to_vec()).unwrap();
        }
        let acked: Vec<AtomicU32> = (0..KEYS).map(|_| AtomicU32::new(0)).collect();
        let done = AtomicBool::new(false);
        let start = std::sync::Barrier::new(3);

        std::thread::scope(|s| {
            let (tree, acked, done, start) = (&tree, &acked, &done, &start);
            s.spawn(move || {
                start.wait();
                let mut x = 0xA11CE_u64;
                for _ in 0..ops {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let k = (x >> 24) % KEYS;
                    if !stable(k) && (x >> 8).is_multiple_of(5) {
                        tree.delete(k).unwrap();
                        continue;
                    }
                    let v = acked[k as usize].load(Ordering::Relaxed) + 1;
                    tree.put(k, v.to_le_bytes().to_vec()).unwrap();
                    acked[k as usize].store(v, Ordering::Release);
                }
                done.store(true, Ordering::Release);
            });
            for r in 0..2u64 {
                s.spawn(move || {
                    start.wait();
                    let mut x = 0xBEE5 + r;
                    let mut round = 0u64;
                    while !done.load(Ordering::Acquire) {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let k = ((x >> 24) % (KEYS / 2)) * 2;
                        let floor = acked[k as usize].load(Ordering::Acquire);
                        let got =
                            tree.get(k).unwrap().unwrap_or_else(|| panic!("live key {k} missed"));
                        assert!(
                            version_of(&got) >= floor,
                            "key {k}: read {} after {floor} was acked",
                            version_of(&got)
                        );

                        round += 1;
                        if round.is_multiple_of(64) {
                            let floors: Vec<u32> =
                                acked.iter().map(|a| a.load(Ordering::Acquire)).collect();
                            let scan = tree.scan_collect(0, u64::MAX).unwrap();
                            assert!(
                                scan.windows(2).all(|w| w[0].0 < w[1].0),
                                "scan out of order or duplicated"
                            );
                            let mut stable_seen = 0;
                            for (k, v) in &scan {
                                if stable(*k) {
                                    stable_seen += 1;
                                    assert!(
                                        version_of(v) >= floors[*k as usize],
                                        "scan: key {k} went back in time"
                                    );
                                }
                            }
                            assert_eq!(
                                stable_seen,
                                KEYS / 2,
                                "scan missed a key that is never deleted"
                            );
                        }
                    }
                });
            }
        });

        tree.flush().unwrap();
        tree.deep_verify(true).unwrap();
        for (i, stats) in tree.shard_stats().iter().enumerate() {
            let installs: u64 = stats.levels.iter().map(|l| l.merges_in).sum();
            assert!(installs >= 200, "{shards} shards: shard {i} saw only {installs} installs");
        }
        for k in (0..KEYS).step_by(2) {
            let got = tree.get(k).unwrap().expect("stable key");
            assert_eq!(
                version_of(&got),
                acked[k as usize].load(Ordering::Relaxed),
                "key {k} final version"
            );
        }
    }
}

/// Rows under concurrency: a cache of eight 1 KiB blocks, far too small
/// for the data, so a get that reads the device keeps its row, and a
/// reader that keeps asking for a few hot keys is answered by rows — while
/// a writer rewrites those keys with increasing versions among puts to
/// cold keys that keep the workers installing. Every version a get returns
/// was written, and none is older than one this reader saw before or one
/// acknowledged before the get began.
#[test]
fn rows_answer_hot_gets_with_no_stale_version_across_installs() {
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

    const HOT: u64 = 24;
    const COLD: std::ops::Range<u64> = 1_000..3_000;
    let version_of = |v: &Bytes| u32::from_le_bytes(v[..4].try_into().unwrap());
    let cfg = LsmConfig { block_size: 1024, cache_blocks: 8, k0_blocks: 1, ..cfg() };
    let tree =
        ShardedLsmTree::with_mem_devices(cfg, opts(Scheduler::background()), 2, 1 << 14).unwrap();
    for k in (0..HOT).chain(COLD) {
        tree.put(k, 0u32.to_le_bytes().to_vec()).unwrap();
    }
    // Per hot key: the newest version a put was begun with, and the newest
    // one acknowledged.
    let issued: Vec<AtomicU32> = (0..HOT).map(|_| AtomicU32::new(0)).collect();
    let acked: Vec<AtomicU32> = (0..HOT).map(|_| AtomicU32::new(0)).collect();
    let done = AtomicBool::new(false);
    let start = std::sync::Barrier::new(2);

    std::thread::scope(|s| {
        let (tree, issued, acked, done, start) = (&tree, &issued, &acked, &done, &start);
        s.spawn(move || {
            start.wait();
            let mut x = 0x0DD5_u64;
            for _ in 0..40_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if !(x >> 8).is_multiple_of(16) {
                    let k = COLD.start + (x >> 24) % (COLD.end - COLD.start);
                    tree.put(k, 0u32.to_le_bytes().to_vec()).unwrap();
                    continue;
                }
                let k = ((x >> 24) % HOT) as usize;
                let v = issued[k].load(Ordering::Relaxed) + 1;
                issued[k].store(v, Ordering::Release);
                tree.put(k as u64, v.to_le_bytes().to_vec()).unwrap();
                acked[k].store(v, Ordering::Release);
            }
            done.store(true, Ordering::Release);
        });
        s.spawn(move || {
            start.wait();
            let mut seen = [0u32; HOT as usize];
            let mut x = 0xF00D_u64;
            while !done.load(Ordering::Acquire) {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let k = ((x >> 24) % HOT) as usize;
                let floor = acked[k].load(Ordering::Acquire);
                let got = tree.get(k as u64).unwrap().unwrap_or_else(|| panic!("key {k} missed"));
                let v = version_of(&got);
                let written = issued[k].load(Ordering::Acquire);
                assert!(v <= written, "key {k}: read {v}, but only {written} were written");
                assert!(v >= floor, "key {k}: read {v} after {floor} was acked");
                assert!(v >= seen[k], "key {k}: read {v} after reading {}", seen[k]);
                seen[k] = v;
            }
        });
    });

    tree.flush().unwrap();
    tree.deep_verify(true).unwrap();
    let installs: u64 =
        tree.shard_stats().iter().flat_map(|s| &s.levels).map(|l| l.merges_in).sum();
    let row_hits: u64 = (0..tree.shard_count())
        .map(|i| tree.with_shard_read(i, |t| t.store().row_hits()))
        .map(|hits| hits.current + hits.earlier)
        .sum();
    assert!(installs >= 200 && row_hits > 0, "{installs} installs, {row_hits} row hits");
    for (k, acked) in acked.iter().enumerate() {
        let got = tree.get(k as u64).unwrap().expect("hot key");
        assert_eq!(version_of(&got), acked.load(Ordering::Relaxed), "key {k} final version");
    }
}
