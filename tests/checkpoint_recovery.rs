//! End-to-end checkpoint/restore across a process-lifetime boundary: the
//! index is built on a file-backed device, checkpointed, dropped, and
//! reopened from the manifest — contents, invariants, and further
//! operation must all survive.

use std::path::PathBuf;
use std::sync::Arc;

use lsm_ssd_repro::lsm_tree::verify::check_tree;
use lsm_ssd_repro::lsm_tree::{LsmConfig, LsmTree, PolicySpec, ShardedLsmTree, TreeOptions};
use lsm_ssd_repro::sim_ssd::{BlockDevice, FileDevice, MemDevice};
use lsm_ssd_repro::workloads::payload_for;

fn cfg() -> LsmConfig {
    LsmConfig {
        block_size: 512,
        payload_size: 20,
        k0_blocks: 8,
        gamma: 8,
        cache_blocks: 64,
        merge_rate: 0.1,
        ..LsmConfig::default()
    }
}

fn paths(tag: &str) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir();
    (
        base.join(format!("lsm-ckpt-{}-{tag}.dev", std::process::id())),
        base.join(format!("lsm-ckpt-{}-{tag}.manifest", std::process::id())),
    )
}

#[test]
fn checkpoint_then_restore_preserves_everything() {
    let (dev_path, man_path) = paths("basic");
    let expected: Vec<(u64, bool)> = (0..4_000u64).map(|k| (k * 17 % 65_537, k % 3 != 0)).collect();
    {
        let dev = Arc::new(FileDevice::create_with_block_size(&dev_path, 1 << 14, 512).unwrap());
        let mut tree = LsmTree::new(cfg(), TreeOptions::default(), dev).unwrap();
        for &(key, _) in &expected {
            tree.put(key, payload_for(key, 20)).unwrap();
        }
        for &(key, keep) in &expected {
            if !keep {
                tree.delete(key).unwrap();
            }
        }
        tree.checkpoint(&man_path).unwrap();
    } // tree and device dropped: "process exit"

    let dev = Arc::new(FileDevice::open(&dev_path, 512).unwrap());
    let mut tree = LsmTree::restore(&man_path, TreeOptions::default(), dev).unwrap();
    check_tree(&tree, true).expect("restored tree invariants");

    for &(key, keep) in &expected {
        let got = tree.get(key).unwrap();
        if keep {
            assert_eq!(got.as_deref(), Some(&payload_for(key, 20)[..]), "key {key} lost");
        } else {
            assert_eq!(got, None, "deleted key {key} resurrected");
        }
    }

    // The restored index keeps working: more writes, merges, lookups.
    for k in 0..2_000u64 {
        tree.put(1_000_000 + k, payload_for(k, 20)).unwrap();
    }
    assert!(tree.get(1_000_999).unwrap().is_some());
    check_tree(&tree, true).unwrap();

    std::fs::remove_file(&dev_path).ok();
    std::fs::remove_file(&man_path).ok();
}

#[test]
fn restore_preserves_policy_cursors_and_bookkeeping() {
    let (dev_path, man_path) = paths("cursors");
    let before;
    {
        let dev = Arc::new(FileDevice::create_with_block_size(&dev_path, 1 << 14, 512).unwrap());
        let mut tree =
            LsmTree::new(cfg(), TreeOptions::builder().policy(PolicySpec::RoundRobin).build(), dev)
                .unwrap();
        for k in 0..5_000u64 {
            tree.put(k * 11 % 99_991, payload_for(k, 20)).unwrap();
        }
        before = (
            tree.mem_rr_cursor(),
            tree.levels().iter().map(|l| (l.rr_cursor, l.waste_delta)).collect::<Vec<_>>(),
            tree.record_count(),
        );
        tree.checkpoint(&man_path).unwrap();
    }
    let dev = Arc::new(FileDevice::open(&dev_path, 512).unwrap());
    let tree = LsmTree::restore(
        &man_path,
        TreeOptions::builder().policy(PolicySpec::RoundRobin).build(),
        dev,
    )
    .unwrap();
    let after = (
        tree.mem_rr_cursor(),
        tree.levels().iter().map(|l| (l.rr_cursor, l.waste_delta)).collect::<Vec<_>>(),
        tree.record_count(),
    );
    assert_eq!(before, after, "cursors/bookkeeping must survive restart");
    std::fs::remove_file(&dev_path).ok();
    std::fs::remove_file(&man_path).ok();
}

#[test]
fn restore_rejects_mismatched_device() {
    let (dev_path, man_path) = paths("mismatch");
    {
        let dev = Arc::new(FileDevice::create_with_block_size(&dev_path, 1 << 12, 512).unwrap());
        let mut tree = LsmTree::new(cfg(), TreeOptions::default(), dev).unwrap();
        tree.put(1, payload_for(1, 20)).unwrap();
        tree.checkpoint(&man_path).unwrap();
    }
    // Reopen with the wrong block size: must be refused.
    let wrong = Arc::new(FileDevice::open(&dev_path, 1024).unwrap());
    assert!(LsmTree::restore(&man_path, TreeOptions::default(), wrong).is_err());
    std::fs::remove_file(&dev_path).ok();
    std::fs::remove_file(&man_path).ok();
}

#[test]
fn restored_allocator_does_not_clobber_live_blocks() {
    let (dev_path, man_path) = paths("alloc");
    {
        let dev = Arc::new(FileDevice::create_with_block_size(&dev_path, 1 << 14, 512).unwrap());
        let mut tree = LsmTree::new(cfg(), TreeOptions::default(), dev).unwrap();
        for k in 0..3_000u64 {
            tree.put(k, payload_for(k, 20)).unwrap();
        }
        tree.checkpoint(&man_path).unwrap();
    }
    let dev = Arc::new(FileDevice::open(&dev_path, 512).unwrap());
    let mut tree = LsmTree::restore(&man_path, TreeOptions::default(), dev).unwrap();
    // Hammer the restored index with enough churn to recycle many blocks;
    // if the allocator handed out a live id, some old key would corrupt.
    for k in 3_000..9_000u64 {
        tree.put(k, payload_for(k, 20)).unwrap();
    }
    for k in (0..9_000u64).step_by(2) {
        tree.delete(k).unwrap();
    }
    for k in (1..9_000u64).step_by(501).filter(|k| k % 2 == 1) {
        assert_eq!(tree.get(k).unwrap().as_deref(), Some(&payload_for(k, 20)[..]), "key {k}");
    }
    for k in (0..9_000u64).step_by(502) {
        assert_eq!(tree.get(k).unwrap(), None, "deleted key {k} resurrected");
    }
    check_tree(&tree, true).unwrap();
    std::fs::remove_file(&dev_path).ok();
    std::fs::remove_file(&man_path).ok();
}

/// SplitMix64 as a stream: the test's seeded keys.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed;
    move || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[test]
fn a_restored_tree_asks_for_the_blocks_its_checkpointed_self_asked_for() {
    // One WAL-backed shard with filters is loaded, checkpointed, dropped
    // and reopened from its manifest and log. A seeded tape of gets, one
    // in ten for a key never written, costs the restored tree exactly the
    // block reads and filter skips it cost the live tree: the manifest
    // carries every block's filter. (Without them a restored get asked for
    // a block at every level whose fences cover its key.)
    let dir = std::env::temp_dir().join(format!("lsm-ckpt-{}-filters", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = LsmConfig { bloom_bits_per_key: 10, ..cfg() };
    let device = Arc::new(MemDevice::with_block_size(1 << 15, 512));
    let open = |recover: bool| {
        let devices = vec![Arc::clone(&device) as Arc<dyn BlockDevice>];
        let opts = TreeOptions::default();
        match recover {
            false => ShardedLsmTree::with_backend(cfg.clone(), opts, devices, Some(&dir), None),
            true => ShardedLsmTree::recover_with_backend(cfg.clone(), opts, devices, &dir, None),
        }
        .unwrap()
    };
    // Written keys are odd, the absent ones even.
    let (puts, gets) = (20_000u64, 4_000);
    let mut next = stream(7);
    let written: Vec<u64> = (0..puts).map(|_| next() | 1).collect();
    let tape: Vec<u64> = (0..gets)
        .map(|i| match i % 10 {
            0 => next() & !1,
            _ => written[(next() % puts) as usize],
        })
        .collect();
    let cost = |t: &ShardedLsmTree| {
        let before = t.stats();
        for &key in &tape {
            assert_eq!(t.get(key).unwrap().is_some(), key & 1 == 1, "key {key}");
        }
        let after = t.stats();
        (
            after.lookup_block_reads() - before.lookup_block_reads(),
            after.bloom_skips() - before.bloom_skips(),
        )
    };

    let live = open(false);
    for &key in &written {
        live.put(key, payload_for(key, 20)).unwrap();
    }
    live.checkpoint().unwrap();
    let live_cost = cost(&live);
    drop(live);
    let restored = open(true);
    let restored_cost = cost(&restored);
    eprintln!(
        "blocks a get: live {:.4}, restored {:.4}; filter skips {} and {}",
        live_cost.0 as f64 / gets as f64,
        restored_cost.0 as f64 / gets as f64,
        live_cost.1,
        restored_cost.1
    );
    assert!(live_cost.1 > 0, "the tape never met a filter");
    assert_eq!(restored_cost, live_cost, "(block reads, filter skips) after the restart");
    drop(restored);
    std::fs::remove_dir_all(&dir).ok();
}
