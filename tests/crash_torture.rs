//! Crash-torture suite: seeded writers interleaved with a stepped
//! scheduler over fault-injecting devices, power cuts at random device-op
//! counts across hundreds of seeds, recovery, and the durability invariant
//! (see `lsm_tree::torture`). One writer merging inline is power-cut under
//! every policy by the model oracle (`crates/lsm-tree/src/oracle.rs`).
//!
//! The 200-seed sweep runs on every `cargo test`; the soak (more seeds,
//! longer histories) is `#[ignore]`d and run explicitly:
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

/// 200 seeded crash cycles. Each failure prints its seed; replay with
/// `lsm_crash --seeds=1 --seed-base=<seed>`.
#[test]
fn two_hundred_seeded_power_cuts_recover() {
    let mut failures = Vec::new();
    let (mut between_halves, mut between_sync_halves, mut reads) = (0, 0, 0);
    let (mut checkpoints, mut ckpt_between_halves, mut ckpt_between_sync_halves) = (0, 0, 0);
    let (mut batches_acked, mut cut_in_a_batch, mut cut_mid_workload) = (0, 0, 0);
    for seed in 0..200u64 {
        match run_crash_cycle(&TortureConfig::concurrent(seed)) {
            Ok(report) => {
                between_halves += report.ops_between_halves;
                between_sync_halves += report.writes_between_sync_halves;
                reads += report.reads;
                batches_acked += report.batches_acked;
                // The workload ended at a batch that failed: a prefix of
                // some shard's run may be applied and logged.
                cut_in_a_batch += u64::from(report.batches > report.batches_acked);
                cut_mid_workload += u64::from(report.cut_mid_workload);
                checkpoints += report.checkpoints;
                ckpt_between_halves += report.checkpoints_between_halves;
                ckpt_between_sync_halves += report.checkpoints_between_sync_halves;
            }
            Err(f) => failures.push(f.to_string()),
        }
    }
    assert!(failures.is_empty(), "{} failing seeds:\n{}", failures.len(), failures.join("\n"));
    // The cut window is sized so most cuts land mid-workload; if almost
    // none do, the sweep only exercises the forced end-of-run cut.
    assert!(cut_mid_workload >= 50, "only {cut_mid_workload}/200 cuts fired mid-workload");
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

/// Soak: more seeds, more writers and shards, longer histories. Run
/// explicitly with `-- --ignored`.
#[test]
#[ignore = "soak: hundreds more seeds with longer histories"]
fn soak_more_seeds_longer_histories() {
    let mut failures = Vec::new();
    for seed in 1_000..1_400u64 {
        let cfg = TortureConfig {
            ops: 400,
            writers: 4,
            shards: 3,
            continue_ops: 80,
            ..TortureConfig::concurrent(seed)
        };
        if let Err(f) = run_crash_cycle(&cfg) {
            failures.push(f.to_string());
        }
    }
    assert!(failures.is_empty(), "{} failing seeds:\n{}", failures.len(), failures.join("\n"));
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
