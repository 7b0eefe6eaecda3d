//! Property test for the Stepped-Merge policy: the §VI write/lookup trade
//! against a leveled tree on identical inputs. (Its answers and run
//! structure are held against the one model oracle, `src/oracle.rs`.)

use bytes::Bytes;
use proptest::prelude::*;

use lsm_tree::{LsmConfig, LsmTree, PolicySpec, Request, TreeOptions};

#[derive(Debug, Clone)]
enum Op {
    Put(u64, u8),
    Delete(u64),
}

fn ops(key_space: u64, len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0..key_space, any::<u8>()).prop_map(|(k, v)| Op::Put(k, v)),
            2 => (0..key_space).prop_map(Op::Delete),
        ],
        len,
    )
}

fn cfg() -> LsmConfig {
    LsmConfig {
        block_size: 256,
        payload_size: 4,
        k0_blocks: 2,
        gamma: 4,
        cache_blocks: 32,
        merge_rate: 0.4,
        ..LsmConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn stepped_merge_never_writes_more_than_leveled(ops in ops(5_000, 400..900)) {
        // The whole point of Stepped-Merge (§VI): strictly cheaper merges.
        // On identical inputs it must not write more blocks than the
        // leveled tree (it writes each record once per level; leveled LSM
        // rewrites overlapping regions repeatedly).
        let stepped = TreeOptions::builder().policy(PolicySpec::SteppedMerge { fan_in: 4 });
        let mut sm = LsmTree::with_mem_device(cfg(), stepped.build(), 1 << 16).unwrap();
        let mut lsm = LsmTree::with_mem_device(cfg(), TreeOptions::default(), 1 << 16).unwrap();
        for op in &ops {
            let req = match *op {
                Op::Put(k, v) => Request::Put(k, Bytes::from(vec![v; 4])),
                Op::Delete(k) => Request::Delete(k),
            };
            sm.apply(req.clone()).unwrap();
            lsm.apply(req).unwrap();
        }
        let (w_sm, w_lsm) = (sm.stats().total_blocks_written(), lsm.stats().total_blocks_written());
        // Allow slack for tiny runs where both barely merge.
        prop_assert!(
            w_sm <= w_lsm + 4,
            "stepped-merge wrote {} vs leveled {}",
            w_sm,
            w_lsm
        );
    }
}
