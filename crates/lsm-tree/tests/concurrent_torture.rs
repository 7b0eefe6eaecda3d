//! Deterministic torture for the concurrent write path (ISSUE 7).
//!
//! Every cycle here is [`lsm_tree::run_crash_cycle`] in its concurrent
//! shape ([`lsm_tree::TortureConfig::concurrent`]): M seeded writers
//! interleaved with the half-steps of a stepped [`lsm_tree::MergeScheduler`],
//! seeded group-commit fsyncs and checkpoints over per-shard fault
//! devices, then a power cut, WAL tail truncation, recovery from the
//! manifests and the devices' durable images, and the
//! [`lsm_tree::HistoryChecker`] prefix-durability check. The interleaving
//! itself comes from the seed, so a failing cycle replays byte-for-byte
//! from the seed alone — no thread-timing lottery.
//!
//! Companion shutdown/backpressure tests, run under both of the
//! scheduler's drivers, live in `scheduler::tests`; the thread-shaped
//! group-commit poison test is here because it needs the full sharded
//! tree.

use std::sync::Arc;

use lsm_tree::observe::Json;
use lsm_tree::{
    CommitMode, LsmConfig, LsmError, MergeScheduler, PolicySpec, ShardedLsmTree, TortureConfig,
    TreeOptions, WalFaultPlan,
};

fn tiny_cfg() -> LsmConfig {
    LsmConfig {
        block_size: 256,
        payload_size: 4,
        k0_blocks: 4,
        gamma: 4,
        cache_blocks: 16,
        merge_rate: 0.25,
        ..LsmConfig::default()
    }
}

/// The checked-in suite: 200 seeded concurrent crash cycles. Each failure
/// prints its seed; replay with
/// `lsm_crash --scheduler=background --seeds=1 --seed-base=<seed>`.
#[test]
fn two_hundred_concurrent_seeds_survive() {
    let mut failures = Vec::new();
    let (mut between_halves, mut between_sync_halves, mut reads) = (0, 0, 0);
    let (mut checkpoints, mut ckpt_between_halves, mut ckpt_between_sync_halves) = (0, 0, 0);
    let (mut batches_acked, mut cut_in_a_batch) = (0, 0);
    for seed in 0..200u64 {
        let cfg = TortureConfig::concurrent(seed);
        match lsm_tree::run_crash_cycle(&cfg) {
            Ok(report) => {
                between_halves += report.ops_between_halves;
                between_sync_halves += report.writes_between_sync_halves;
                reads += report.reads;
                batches_acked += report.batches_acked;
                // The workload ended at a batch that failed: a prefix of
                // some shard's run may be applied and logged.
                cut_in_a_batch += u64::from(report.batches > report.batches_acked);
                checkpoints += report.checkpoints;
                ckpt_between_halves += report.checkpoints_between_halves;
                ckpt_between_sync_halves += report.checkpoints_between_sync_halves;
            }
            Err(f) => failures.push(f.to_string()),
        }
    }
    assert!(failures.is_empty(), "{} failing seeds:\n{}", failures.len(), failures.join("\n"));
    // The sweep is only worth its name if requests really do land between
    // a step's compute and its install, and reads really are checked.
    assert!(
        between_halves >= 1_000,
        "only {between_halves} requests ran between a compute and its install"
    );
    assert!(reads >= 1_000, "only {reads} reads were checked against the model");
    // Likewise for the fsync off the lock: writes must land between a group
    // sync's flush and its fsync, where only the noted length may be acked.
    assert!(
        between_sync_halves >= 500,
        "only {between_sync_halves} writes ran between the halves of a group sync"
    );
    // And checkpoints: the cut must land in both gaps too.
    assert!(checkpoints >= 100, "only {checkpoints} checkpoints");
    assert!(ckpt_between_halves >= 1, "no checkpoint between a compute and its install");
    assert!(ckpt_between_sync_halves >= 1, "no checkpoint between a group sync's halves");
    // And batches: acked by their per-shard commits, and failed part-way.
    assert!(batches_acked >= 500, "only {batches_acked} batches acked by their own commit");
    assert!(cut_in_a_batch >= 5, "only {cut_in_a_batch} cycles ended in a failed batch");
}

/// Replaying a seed reproduces the cycle exactly: issued/acked counts,
/// simulated-scheduler step count, group fsync count, matched history
/// prefixes — everything in the report.
#[test]
fn same_seed_replays_identically() {
    for seed in [3u64, 41, 77, 1234] {
        let cfg = TortureConfig::concurrent(seed);
        let a = lsm_tree::run_crash_cycle(&cfg).expect("first run");
        let b = lsm_tree::run_crash_cycle(&cfg).expect("replay");
        assert_eq!(a, b, "seed {seed} diverged between runs");
    }
}

/// Bundles for the same seed are byte-identical across runs and carry a
/// valid `scheduler` section (job queue, backlogs, open rendezvous).
#[test]
fn same_seed_bundles_are_byte_identical_with_scheduler_section() {
    let base = std::env::temp_dir().join(format!("lsm-cbundle-{}", std::process::id()));
    let dirs = [base.join("a"), base.join("b")];
    let seed = 77u64;
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
        let mut cfg = TortureConfig::concurrent(seed);
        cfg.bundle_dir = Some(dir.clone());
        cfg.always_dump = true;
        lsm_tree::run_crash_cycle(&cfg).expect("cycle");
    }
    let path_a = lsm_tree::torture::bundle_path(&dirs[0], seed);
    let a = std::fs::read(&path_a).expect("first bundle written");
    let b = std::fs::read(lsm_tree::torture::bundle_path(&dirs[1], seed))
        .expect("second bundle written");
    assert_eq!(a, b, "same-seed bundles differ byte-for-byte");

    let doc = Json::parse(std::str::from_utf8(&a).unwrap()).expect("bundle parses");
    let problems = lsm_tree::report::validate_report(&doc);
    assert!(problems.is_empty(), "bundle invalid: {problems:?}");
    let sched = doc.get("scheduler");
    for key in ["queued", "backlogs", "max_imm_memtables", "sim_steps", "rendezvous"] {
        assert!(sched.get(key) != &Json::Null, "scheduler section missing {key}");
    }
    std::fs::remove_dir_all(&base).ok();
}

/// The negative test the ISSUE demands: flip group-commit acks to "acked
/// at append" (an ack-before-fsync bug) and the history checker must
/// catch it as a durability violation on a healthy majority of seeds.
#[test]
fn history_checker_rejects_ack_before_fsync_bug() {
    let mut caught = 0;
    let mut sample = String::new();
    for seed in 0..40u64 {
        let mut cfg = TortureConfig::concurrent(seed);
        cfg.inject_ack_bug = true;
        if let Err(f) = lsm_tree::run_crash_cycle(&cfg) {
            assert!(
                f.message.contains("durability history violation"),
                "seed {seed} failed for the wrong reason: {f}"
            );
            if caught == 0 {
                sample = f.to_string();
            }
            caught += 1;
        }
    }
    // Not every seed tears an acked-but-unsynced tail, but most do.
    assert!(caught >= 10, "ack-before-fsync bug caught on only {caught}/40 seeds; e.g. {sample}");
}

/// Satellite: a failed fsync at the group-commit leader must propagate to
/// every follower and poison the WAL — no writer may ever see `Ok` for a
/// write whose fsync failed, and the log stays unusable until re-open.
#[test]
fn group_fsync_failure_poisons_wal_and_fails_every_writer() {
    let dir = std::env::temp_dir().join(format!("lsm-gc-poison-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("wal dir");
    let opts = TreeOptions::builder()
        .policy(PolicySpec::ChooseBest)
        .group_commit(CommitMode::Group)
        .build();
    let tree =
        Arc::new(ShardedLsmTree::with_wal_dir(tiny_cfg(), opts, 1, 1 << 14, &dir).expect("create"));
    // The very first fsync attempt fails: whichever writer becomes the
    // group-commit leader hits it, and every cohort member must error.
    tree.set_wal_fault_plan(0, WalFaultPlan::none().fail_sync_at(0), 0xF00D);

    let mut handles = Vec::new();
    for w in 0..6u64 {
        let tree = Arc::clone(&tree);
        handles.push(std::thread::spawn(move || {
            let mut acked = 0u32;
            let mut failed = 0u32;
            for i in 0..4u64 {
                match tree.put(w * 100 + i, vec![w as u8; 4]) {
                    Ok(()) => acked += 1,
                    Err(_) => failed += 1,
                }
            }
            (acked, failed)
        }));
    }
    let mut total_acked = 0;
    let mut total_failed = 0;
    for h in handles {
        let (a, f) = h.join().expect("writer thread");
        total_acked += a;
        total_failed += f;
    }
    assert_eq!(total_acked, 0, "a writer was acked despite the failed group fsync");
    assert_eq!(total_failed, 24, "every write must error back to its writer");
    assert!(tree.wal_poisoned(0), "failed fsync must poison the WAL until re-open");
    assert!(tree.put(9999, vec![1; 4]).is_err(), "poisoned WAL must keep rejecting writes");

    // Re-open (recovery) clears the poison: the log's intact prefix — at
    // most nothing here, since no fsync ever succeeded — replays cleanly
    // and the recovered handle accepts writes again.
    drop(tree);
    let r_opts = TreeOptions::builder().policy(PolicySpec::ChooseBest).build();
    let recovered =
        ShardedLsmTree::recover_with_wal(tiny_cfg(), r_opts, 1, 1 << 14, &dir).expect("recover");
    assert!(!recovered.wal_poisoned(0));
    recovered.put(1, vec![2; 4]).expect("recovered handle accepts writes");
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: a writer stalled at the `max_imm` backpressure bound while
/// the scheduler shuts down must get an error, never hang. Driven through
/// the stepped scheduler so the stall is deterministic: shutdown first,
/// then write until a seal pushes the immutable count to the bound.
#[test]
fn stalled_writer_errors_instead_of_hanging_on_shutdown() {
    let sim = Arc::new(MergeScheduler::simulated(1, 7, lsm_tree::observe::SinkHandle::none()));
    sim.shutdown();
    let opts = TreeOptions::builder().policy(PolicySpec::ChooseBest).build();
    let tree = ShardedLsmTree::with_backend(
        tiny_cfg(),
        opts,
        vec![Arc::new(sim_ssd::MemDevice::with_block_size(1 << 14, 256)) as _],
        None,
        Some(sim),
    )
    .expect("create");
    let mut shutdown_errors = 0;
    for k in 0..2_000u64 {
        match tree.put(k, vec![(k % 251) as u8; 4]) {
            Ok(()) => {}
            Err(LsmError::Shutdown(_)) => {
                shutdown_errors += 1;
                break;
            }
            Err(other) => panic!("expected a shutdown error, got {other}"),
        }
    }
    assert_eq!(shutdown_errors, 1, "writer at the max_imm bound never saw the shutdown error");
}

/// A put that fills the memtable while the sealed backlog sits at the
/// bound cannot seal it; the memtable stays full for the next put to stall
/// on. `flush` promises a quiescent tree, so it must seal and drain that
/// one too.
#[test]
fn flush_leaves_no_full_memtable_behind_a_full_backlog() {
    let sim = Arc::new(MergeScheduler::simulated(1, 7, lsm_tree::observe::SinkHandle::none()));
    let opts = TreeOptions::builder().policy(PolicySpec::ChooseBest).build();
    let tree = ShardedLsmTree::with_backend(
        tiny_cfg(),
        opts,
        vec![Arc::new(sim_ssd::MemDevice::with_block_size(1 << 14, 256)) as _],
        None,
        Some(Arc::clone(&sim)),
    )
    .expect("create");
    // Nothing steps the scheduler: the first full memtable seals and fills
    // the backlog (bound 1), the second fills up behind it.
    let cap = tiny_cfg().l0_capacity_records() as u64;
    for k in 0..2 * cap {
        tree.put(k, vec![(k % 251) as u8; 4]).unwrap();
    }
    assert_eq!(sim.snapshot().sim_steps, Some(0), "no put stalled, so nothing was flushed yet");
    tree.flush().unwrap();
    tree.deep_verify(true).expect("a quiescent tree has no full memtable");
    assert_eq!(tree.scan_collect(0, u64::MAX).unwrap().len() as u64, 2 * cap);
}

/// A step has two halves and the stepped scheduler runs one per step, so
/// a shutdown (or a crash) can fall between them. The computed step then
/// dies with its shard, and must take the blocks it wrote with it: after
/// the tree is gone the device holds exactly the blocks it held before the
/// compute.
#[test]
fn shutdown_between_compute_and_install_frees_the_computed_blocks() {
    let dev = Arc::new(sim_ssd::MemDevice::with_block_size(1 << 14, 256));
    let sim = Arc::new(MergeScheduler::simulated(2, 11, lsm_tree::observe::SinkHandle::none()));
    let opts = TreeOptions::builder().policy(PolicySpec::ChooseBest).build();
    let tree = ShardedLsmTree::with_backend(
        tiny_cfg(),
        opts,
        vec![Arc::clone(&dev) as _],
        None,
        Some(Arc::clone(&sim)),
    )
    .expect("create");
    // Some installed levels first, then a freshly sealed memtable.
    for k in 0..300u64 {
        tree.put(k * 3, vec![(k % 251) as u8; 4]).unwrap();
    }
    tree.flush().unwrap();
    for k in 0..56u64 {
        tree.put(k * 5 + 1, vec![7; 4]).unwrap();
    }
    let live = |t: &ShardedLsmTree| t.with_shard_read(0, |t| t.store().live_blocks());
    let installed = live(&tree);
    let io = || sim_ssd::BlockDevice::io_snapshot(&*dev);
    let before = io();

    assert!(sim.step(), "the sealed memtable gives the compute half work");
    let written = io().writes - before.writes;
    assert!(written > 0, "the compute half writes the step's output");
    assert_eq!(live(&tree), installed + written, "computed blocks are allocated, not installed");
    assert_eq!(tree.get(1).unwrap().as_deref(), Some(&[7u8; 4][..]), "reads see the old state");

    sim.shutdown();
    drop(tree);
    assert_eq!(io().trims - before.trims, written, "the computed step's blocks were not freed");
}

/// Longer soak for manual runs: `cargo test -p lsm-tree --test
/// concurrent_torture -- --ignored`. Same determinism contract, more
/// seeds and longer histories.
#[test]
#[ignore = "soak: hundreds more seeds with longer histories"]
fn soak_more_seeds_longer_histories() {
    let mut failures = Vec::new();
    for seed in 1_000..1_400u64 {
        let mut cfg = TortureConfig::concurrent(seed);
        cfg.ops = 400;
        cfg.writers = 4;
        cfg.shards = 3;
        cfg.continue_ops = 80;
        if let Err(f) = lsm_tree::run_crash_cycle(&cfg) {
            failures.push(f.to_string());
        }
    }
    assert!(failures.is_empty(), "{} failing seeds:\n{}", failures.len(), failures.join("\n"));
}
