//! Long-running soak test (ignored by default; run with
//! `cargo test --release --test soak -- --ignored`): a million mixed
//! operations against the model, across policies, with periodic deep
//! invariant checks, policy swaps, and a checkpoint/restore in the middle.

use std::collections::BTreeMap;
use std::sync::Arc;

use lsm_ssd_repro::lsm_tree::verify::check_tree;
use lsm_ssd_repro::lsm_tree::{LsmConfig, LsmTree, PolicySpec, Request, TreeOptions};
use lsm_ssd_repro::sim_ssd::FileDevice;

fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 11
}

#[test]
#[ignore = "million-op soak; run with cargo test --release -- --ignored"]
fn million_op_soak_with_restart() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let dev_path = dir.join(format!("lsm-soak-{pid}.dev"));
    let man_path = dir.join(format!("lsm-soak-{pid}.manifest"));
    let cfg = LsmConfig {
        block_size: 512,
        payload_size: 8,
        k0_blocks: 16,
        gamma: 8,
        cache_blocks: 256,
        merge_rate: 0.07,
        ..LsmConfig::default()
    };
    let key_space = 200_000u64;
    let mut model: BTreeMap<u64, u8> = BTreeMap::new();
    let mut state = 0xDEADBEEFu64;

    let policies = [
        PolicySpec::ChooseBest,
        PolicySpec::RoundRobin,
        PolicySpec::TestMixed,
        PolicySpec::Full,
        PolicySpec::ChooseBestAligned,
    ];

    let dev = Arc::new(FileDevice::create_with_block_size(&dev_path, 1 << 17, 512).unwrap());
    let mut tree = LsmTree::new(cfg.clone(), TreeOptions::default(), dev).unwrap();

    for phase in 0..10u64 {
        // Rotate the policy every phase: data must survive policy churn.
        tree.set_policy(policies[(phase as usize) % policies.len()].clone()).unwrap();
        for _ in 0..100_000u64 {
            let r = lcg(&mut state);
            let k = lcg(&mut state) % key_space;
            if r % 5 < 3 {
                let v = (r % 251) as u8;
                tree.apply(Request::Put(k, bytes::Bytes::from(vec![v; 8]))).unwrap();
                model.insert(k, v);
            } else {
                tree.apply(Request::Delete(k)).unwrap();
                model.remove(&k);
            }
        }
        check_tree(&tree, false).unwrap_or_else(|e| panic!("phase {phase}: {e}"));
        // Spot-check a pseudo-random sample against the model.
        for _ in 0..2_000 {
            let k = lcg(&mut state) % key_space;
            let got = tree.get(k).unwrap();
            let want = model.get(&k).map(|&v| vec![v; 8]);
            assert_eq!(got.as_deref(), want.as_deref(), "phase {phase}, key {k}");
        }
        // Mid-soak restart through the manifest.
        if phase == 4 {
            tree.checkpoint(&man_path).unwrap();
            drop(tree);
            let dev = Arc::new(FileDevice::open(&dev_path, 512).unwrap());
            tree = LsmTree::restore(&man_path, TreeOptions::default(), dev).unwrap();
            check_tree(&tree, true).unwrap();
        }
    }

    // Final exhaustive comparison.
    check_tree(&tree, true).unwrap();
    let scanned: Vec<u64> = tree.scan(0, u64::MAX).map(|r| r.unwrap().0).collect();
    let want: Vec<u64> = model.keys().copied().collect();
    assert_eq!(scanned, want);

    std::fs::remove_file(&dev_path).ok();
    std::fs::remove_file(&man_path).ok();
}
