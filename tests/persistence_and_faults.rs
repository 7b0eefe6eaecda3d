//! Cross-crate tests of the storage substrate under the full index:
//! file-backed devices, wear accounting, cache pressure, and injected
//! write failures.

use std::path::PathBuf;
use std::sync::Arc;

use lsm_ssd_repro::lsm_tree::{LsmConfig, LsmError, LsmTree, PolicySpec, TreeOptions};
use lsm_ssd_repro::sim_ssd::{BlockDevice, FaultDevice, FaultPlan, FileDevice, MemDevice};
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

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lsm-it-{}-{tag}.dev", std::process::id()))
}

#[test]
fn file_device_runs_the_full_index() {
    let path = temp_path("full-index");
    {
        let dev =
            Arc::new(FileDevice::create_with_block_size(&path, 1 << 14, cfg().block_size).unwrap());
        let mut tree = LsmTree::new(cfg(), TreeOptions::default(), dev).unwrap();
        for k in 0..5_000u64 {
            tree.put(k * 11, payload_for(k * 11, 20)).unwrap();
        }
        for k in (0..5_000u64).step_by(2) {
            tree.delete(k * 11).unwrap();
        }
        // All lookups verify payload integrity against the generator.
        for k in 0..5_000u64 {
            let got = tree.get(k * 11).unwrap();
            if k % 2 == 0 {
                assert_eq!(got, None);
            } else {
                assert_eq!(got.as_deref(), Some(&payload_for(k * 11, 20)[..]), "key {k}");
            }
        }
        lsm_ssd_repro::lsm_tree::verify::check_tree(&tree, true).unwrap();
        tree.store().device().sync().unwrap();
        let io = tree.store().io_snapshot();
        assert!(io.writes > 0 && io.syncs >= 1);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn wear_concentrates_under_more_writes() {
    // Same workload with Full vs ChooseBest: the policy that writes more
    // blocks programs more flash — the paper's §I motivation made visible
    // through the device's wear counters.
    let mut totals = Vec::new();
    for policy in [PolicySpec::Full, PolicySpec::ChooseBest] {
        let dev = Arc::new(MemDevice::with_block_size(1 << 14, 512));
        let mut tree = LsmTree::new(
            cfg(),
            TreeOptions::builder().policy(policy).preserve_blocks(true).build(),
            Arc::clone(&dev) as Arc<dyn BlockDevice>,
        )
        .unwrap();
        for k in 0..12_000u64 {
            tree.put((k * 2_654_435_761) % 1_000_000, payload_for(k, 20)).unwrap();
        }
        let wear = dev.wear_summary();
        assert_eq!(wear.total_programs, dev.io_snapshot().writes);
        totals.push(wear.total_programs);
    }
    assert!(totals[1] < totals[0], "ChooseBest should program less flash: {totals:?}");
}

#[test]
fn tiny_cache_still_correct_just_slower() {
    let big_cache = run_with_cache(256);
    let tiny_cache = run_with_cache(1);
    assert_eq!(big_cache.0, tiny_cache.0, "results must not depend on cache size");
    assert!(
        tiny_cache.1 > big_cache.1,
        "a 1-block cache must cause more device reads ({} vs {})",
        tiny_cache.1,
        big_cache.1
    );
}

fn run_with_cache(cache_blocks: usize) -> (Vec<u64>, u64) {
    let mut c = cfg();
    c.cache_blocks = cache_blocks;
    let mut tree = LsmTree::with_mem_device(c, TreeOptions::default(), 1 << 14).unwrap();
    for k in 0..6_000u64 {
        tree.put(k * 7 % 100_000, payload_for(k, 20)).unwrap();
    }
    // A hot working set probed repeatedly: a big cache serves repeats from
    // memory, a 1-block cache goes back to the device every time.
    let before = tree.store().io_snapshot().reads;
    let mut live: Vec<u64> = Vec::new();
    for round in 0..50 {
        for k in (0..6_000u64).step_by(399) {
            if tree.get(k * 7 % 100_000).unwrap().is_some() && round == 0 {
                live.push(k);
            }
        }
    }
    (live, tree.store().io_snapshot().reads - before)
}

/// Room for the block means the block is kept: a cold cache the data fits
/// in never holds a single record, and a get-only pass costs one device read
/// for every block it touches — the second pass none.
#[test]
fn a_cold_cache_with_room_reads_every_block_once_and_keeps_it_whole() {
    // 1 KiB blocks: a cached record would be the lighter entry, were the
    // cache ever pressed.
    let c = LsmConfig { block_size: 1024, cache_blocks: 4_096, ..cfg() };
    let device: Arc<dyn BlockDevice> = Arc::new(MemDevice::with_block_size(1 << 12, c.block_size));
    let manifest = temp_path("cold-cache").with_extension("manifest");
    let mut tree = LsmTree::new(c.clone(), TreeOptions::default(), Arc::clone(&device)).unwrap();
    let keys: Vec<u64> = (0..6_000u64).map(|k| k * 7 % 100_000).collect();
    for &k in &keys {
        tree.put(k, payload_for(k, 20)).unwrap();
    }
    tree.checkpoint(&manifest).unwrap();
    let tree = LsmTree::restore(&manifest, TreeOptions::default(), device).unwrap();
    let _ = std::fs::remove_file(&manifest);
    let pass = || {
        let before = tree.store().io_snapshot().reads;
        let found = keys.iter().filter(|&&k| tree.get(k).unwrap().is_some()).count();
        (found, tree.store().io_snapshot().reads - before)
    };
    let (found, first) = pass();
    let cache = tree.store().cache_stats();
    assert!(found > 5_000 && first > 50, "{found} keys found with {first} device reads");
    assert!(first <= tree.store().live_blocks());
    assert_eq!(cache.resident, first * c.block_size as u64, "every block read is cached, whole");
    assert_eq!(pass(), (found, 0), "and answers from then on");
    assert_eq!(tree.store().cache_stats().resident, cache.resident);
}

#[test]
fn injected_write_failure_surfaces_as_error() {
    let dev = Arc::new(FaultDevice::new(Arc::new(MemDevice::with_block_size(1 << 14, 512)), 11));
    let mut tree =
        LsmTree::new(cfg(), TreeOptions::default(), Arc::clone(&dev) as Arc<dyn BlockDevice>)
            .unwrap();
    // Fill L0 to one record below overflow so the next put merges.
    let cap = tree.config().l0_capacity_records();
    for k in 0..(cap as u64 - 1) {
        tree.put(k, payload_for(k, 20)).unwrap();
    }
    // Every write fails, so the retry budget is exhausted and the error
    // surfaces (a single scheduled fault would be absorbed by the retries).
    dev.set_plan(FaultPlan::none().write_error_rate(1.0));
    let err = tree.put(u64::MAX / 2, payload_for(1, 20)).unwrap_err();
    assert!(matches!(err, LsmError::Device(_)), "unexpected error: {err}");
    // After the fault clears, the index accepts writes again.
    dev.set_plan(FaultPlan::none());
    for k in 0..200u64 {
        tree.put(1_000_000 + k, payload_for(k, 20)).unwrap();
    }
    assert!(tree.get(1_000_100).unwrap().is_some());
}

#[test]
fn device_exhaustion_is_reported_not_panicked() {
    // A device far too small for the data: the cascade must eventually
    // fail with NoSpace wrapped in LsmError::Device.
    let mut tree = LsmTree::with_mem_device(cfg(), TreeOptions::default(), 24).unwrap();
    let mut result = Ok(());
    for k in 0..100_000u64 {
        result = tree.put(k, payload_for(k, 20));
        if result.is_err() {
            break;
        }
    }
    assert!(matches!(result, Err(LsmError::Device(_))), "expected NoSpace, got {result:?}");
}
