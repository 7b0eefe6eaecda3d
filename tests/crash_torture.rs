//! Crash-torture suite: randomized workloads over a fault-injecting device,
//! power cuts at random device-op counts across hundreds of seeds, recovery,
//! and the durability invariant (see `lsm_tree::torture`).
//!
//! The smoke test runs on every `cargo test`; the soak (thousands of seeds)
//! is `#[ignore]`d and run explicitly:
//!
//! ```sh
//! cargo test --release --test crash_torture -- --ignored
//! ```

use std::sync::Arc;

use lsm_ssd_repro::lsm_tree::observe::{Event, EventSink, SinkHandle, VecSink};
use lsm_ssd_repro::lsm_tree::{
    run_crash_cycle, LsmConfig, LsmTree, PolicySpec, TortureConfig, TreeOptions,
};
use lsm_ssd_repro::sim_ssd::{BlockDevice, FaultDevice, FaultPlan, MemDevice};

fn torture_range(lo: u64, hi: u64) {
    let (mut mid_workload_cuts, mut batches_acked) = (0u64, 0u64);
    let mut failures = Vec::new();
    for seed in lo..hi {
        match run_crash_cycle(&TortureConfig::for_seed(seed)) {
            Ok(report) => {
                assert!(report.matched_prefix >= report.acked, "{report:?}");
                assert!(report.matched_prefix <= report.issued, "{report:?}");
                if report.cut_mid_workload {
                    mid_workload_cuts += 1;
                }
                batches_acked += report.batches_acked;
            }
            Err(e) => failures.push(e.to_string()),
        }
    }
    assert!(
        failures.is_empty(),
        "{} cycles violated durability:\n{}",
        failures.len(),
        failures.join("\n")
    );
    // The cut window is sized so most cuts land mid-workload; if almost
    // none do, the test is quietly exercising only the forced end-of-run
    // cut and has lost its value.
    let total = hi - lo;
    assert!(
        mid_workload_cuts * 4 >= total,
        "only {mid_workload_cuts}/{total} cuts fired mid-workload"
    );
    // Group-commit seeds submit batches, each acked by its own commit.
    assert!(batches_acked >= total, "only {batches_acked} batches acked over {total} seeds");
}

/// Smoke: 200 seeds, each with one power cut at a random device op.
#[test]
fn two_hundred_seeded_power_cuts_recover() {
    torture_range(0, 200);
}

/// Soak: thousands of seeds. Run explicitly with `-- --ignored`.
#[test]
#[ignore = "multi-minute soak; run with -- --ignored"]
fn soak_thousands_of_seeded_power_cuts() {
    torture_range(200, 3200);
}

fn small_cfg() -> LsmConfig {
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

fn run_workload(tree: &mut LsmTree) {
    for k in 0..900u64 {
        tree.put(k * 13 % 509, vec![(k % 251) as u8; 4]).unwrap();
        if k % 5 == 0 {
            tree.delete(k * 7 % 509).unwrap();
        }
    }
}

/// A transient write fault in the middle of a merge cascade, absorbed by
/// the store's retry on the **same** block id, must leave the tree
/// byte-identical to a fault-free twin fed the same workload.
#[test]
fn transient_mid_merge_fault_leaves_tree_byte_identical() {
    let clean_dev = Arc::new(MemDevice::with_block_size(1 << 14, 256));
    let mut clean = LsmTree::new(
        small_cfg(),
        TreeOptions::builder().policy(PolicySpec::ChooseBest).build(),
        Arc::clone(&clean_dev) as Arc<dyn BlockDevice>,
    )
    .unwrap();

    let sink = Arc::new(VecSink::new());
    let faulty_dev =
        Arc::new(FaultDevice::new(Arc::new(MemDevice::with_block_size(1 << 14, 256)), 9));
    // Writes 40, 90, and 170 land well past the first memtable flush, i.e.
    // inside later merge cascades; each fails once and is retried.
    faulty_dev.set_plan(FaultPlan::none().fail_write_at(40).fail_write_at(90).fail_write_at(170));
    let mut faulty = LsmTree::new(
        small_cfg(),
        TreeOptions::builder()
            .policy(PolicySpec::ChooseBest)
            .sink(SinkHandle::new(Arc::clone(&sink) as Arc<dyn EventSink>))
            .build(),
        Arc::clone(&faulty_dev) as Arc<dyn BlockDevice>,
    )
    .unwrap();

    run_workload(&mut clean);
    run_workload(&mut faulty);

    let retries =
        sink.drain().into_iter().filter(|e| matches!(e, Event::RetryAttempt { .. })).count();
    assert!(retries >= 3, "expected the 3 scheduled faults to be retried, saw {retries}");

    // Identical structure: same levels, same handles, same block ids.
    assert_eq!(clean.levels().len(), faulty.levels().len());
    for (lc, lf) in clean.levels().iter().zip(faulty.levels()) {
        assert_eq!(lc.num_blocks(), lf.num_blocks());
        for (hc, hf) in lc.handles().iter().zip(lf.handles()) {
            assert_eq!(hc.id, hf.id);
            assert_eq!(
                (hc.min, hc.max, hc.count, hc.tombstones),
                (hf.min, hf.max, hf.count, hf.tombstones)
            );
        }
    }
    // Identical bytes: every referenced frame reads back the same through
    // both devices (the retry reused the same id, so even physical layout
    // matches).
    for level in clean.levels() {
        for h in level.handles() {
            let a = clean_dev.read(h.id).unwrap();
            let b = faulty_dev.read(h.id).unwrap();
            assert_eq!(a, b, "frame {} differs between twins", h.id.raw());
        }
    }
    // And identical logical content.
    for k in 0..509u64 {
        assert_eq!(clean.get(k).unwrap(), faulty.get(k).unwrap(), "key {k}");
    }
}
