//! Crash-durable index: write-ahead log + manifest checkpoints + recovery.
//!
//! Simulates a full lifecycle on a one-shard `ShardedLsmTree` over a
//! `FileDevice`: create → load → checkpoint → more writes → crash (no clean
//! shutdown) → recover → verify nothing was lost.
//!
//! ```text
//! cargo run --release --example durable_restart
//! ```

use std::sync::Arc;

use lsm_ssd_repro::lsm_tree::{LsmConfig, ShardedLsmTree, TreeOptions};
use lsm_ssd_repro::sim_ssd::{BlockDevice, FileDevice};
use lsm_ssd_repro::workloads::payload_for;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("durable-demo-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let dev_path = dir.join("shard-0.dev");
    let cfg = LsmConfig { k0_blocks: 16, ..LsmConfig::default() };

    // ---- Incarnation 1: create, load, checkpoint, keep writing, crash.
    {
        let device: Arc<dyn BlockDevice> = Arc::new(FileDevice::create(&dev_path, 1 << 14)?);
        let opts = TreeOptions::default();
        let store =
            ShardedLsmTree::with_backend(cfg.clone(), opts, vec![device], Some(&dir), None)?;

        println!("loading 20k records ...");
        for k in 0..20_000u64 {
            store.put(k, payload_for(k, 100))?;
        }
        store.checkpoint()?;
        println!("checkpoint taken (WAL now {} bytes: its header)", store.wal_lens()[0]);

        println!("writing 3k more records + 1k deletes after the checkpoint ...");
        for k in 20_000..23_000u64 {
            store.put(k, payload_for(k, 100))?;
        }
        for k in 0..1_000u64 {
            store.delete(k * 2)?;
        }
        // Make the WAL durable, then "crash": drop everything without a
        // clean shutdown or another checkpoint.
        store.sync_wals()?;
        println!(
            "simulating crash with {} WAL bytes after the checkpoint ...",
            store.wal_lens()[0]
        );
        std::mem::forget(store);
    }

    // ---- Incarnation 2: restore the manifest, replay the WAL, verify.
    {
        let device: Arc<dyn BlockDevice> = Arc::new(FileDevice::open(&dev_path, cfg.block_size)?);
        let opts = TreeOptions::default();
        let store = ShardedLsmTree::recover_with_backend(cfg, opts, vec![device], &dir, None)?;
        println!("recovered: {} records in the index", store.record_count());

        let mut checked = 0;
        for k in (0..23_000u64).step_by(7) {
            let got = store.get(k)?;
            let deleted = k < 2_000 && k % 2 == 0;
            if deleted {
                assert_eq!(got, None, "key {k} should be deleted");
            } else {
                assert_eq!(got.as_deref(), Some(&payload_for(k, 100)[..]), "key {k} lost");
            }
            checked += 1;
        }
        store.deep_verify(true)?;
        println!("verified {checked} keys, including all post-checkpoint writes — nothing lost.");
        println!("(the manifest restored the levels; the WAL replayed the crash-tail.)");
    }

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
