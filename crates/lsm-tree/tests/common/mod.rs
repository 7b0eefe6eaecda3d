//! The seeded backpressure-stall run the health and tail engines' tests
//! share (and `lsm_doctor --tail-stall` repeats).

use std::sync::Arc;

use lsm_tree::observe::SinkHandle;
use lsm_tree::{LsmConfig, PolicySpec, SchedulerBackend, ShardedLsmTree, SimExecutor, TreeOptions};

/// 600 puts against a two-shard tree over a `max_imm = 1` simulated
/// executor, everything reporting through `handle`. Every sealed memtable
/// overflows the backlog immediately, so writers park inside
/// `backpressure_wait` spans (each stall an `Event::Backpressure`) while
/// the executor runs the flush/merge work inline — the dominant phase of
/// every slow put, by construction. Returns the tree and its executor:
/// drop the one and drain the other to finish the run.
pub fn stalled_tree(seed: u64, handle: &SinkHandle) -> (ShardedLsmTree, Arc<dyn SchedulerBackend>) {
    let cfg = LsmConfig {
        block_size: 256,
        payload_size: 4,
        k0_blocks: 4,
        gamma: 4,
        cache_blocks: 16,
        merge_rate: 0.25,
        ..LsmConfig::default()
    };
    let sim: Arc<dyn SchedulerBackend> = Arc::new(SimExecutor::new(1, seed, handle.clone()));
    let opts = TreeOptions::builder().policy(PolicySpec::ChooseBest).sink(handle.clone()).build();
    let devices =
        (0..2).map(|_| Arc::new(sim_ssd::MemDevice::with_block_size(1 << 14, 256)) as _).collect();
    let tree = ShardedLsmTree::with_backend(cfg, opts, devices, None, Some(Arc::clone(&sim)))
        .expect("create sharded tree");
    for k in 0..600u64 {
        tree.put(k, vec![(k % 251) as u8; 4]).expect("put");
    }
    (tree, sim)
}
