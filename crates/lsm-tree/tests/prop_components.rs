//! Component-level property tests: codec round-trips, window selection
//! optimality, memtable chunking, merge-engine output equivalence, and
//! Bloom filter soundness.

use bytes::Bytes;
use proptest::prelude::*;

use lsm_tree::block::{BlockHandle, FrameBuilder};
use lsm_tree::memtable::{Memtable, RunMeta};
use lsm_tree::policy::window::{choose_best_window, window_overlap, Window};
use lsm_tree::{BloomFilter, DataBlock, MergeEngine, MergeSource, OpKind, Record, Request, Store};

fn arb_record() -> impl Strategy<Value = Record> {
    (any::<u64>(), any::<bool>(), prop::collection::vec(any::<u8>(), 0..24)).prop_map(
        |(key, del, payload)| {
            if del {
                Record::delete(key)
            } else {
                Record { key, op: OpKind::Put, payload: Bytes::from(payload) }
            }
        },
    )
}

/// Sorted, unique-key record runs.
fn arb_run(max_len: usize) -> impl Strategy<Value = Vec<Record>> {
    prop::collection::btree_map(any::<u64>(), arb_record(), 0..max_len).prop_map(|m| {
        m.into_iter()
            .map(|(k, mut r)| {
                r.key = k;
                r
            })
            .collect()
    })
}

/// One step of a memtable tape (`memtable_matches_a_btreemap_model`).
#[derive(Debug, Clone)]
enum MemOp {
    Put(u64, u8),
    Delete(u64),
    Get(u64),
    /// `range(lo, hi)`, inverted and empty ranges included.
    Range(u64, u64),
    /// `virtual_blocks(b)` and the `window` of its run ranges.
    Blocks(usize),
    /// `remove_keys` of the window of `len` runs of `b` records (clipped to
    /// the table) that starts `start` fortieths of the way through.
    RemoveWindow {
        b: usize,
        start: usize,
        len: usize,
    },
    RemoveEverything,
    RemoveNothing,
}

fn arb_mem_op() -> impl Strategy<Value = MemOp> {
    // Keys from a space the tape fills densely enough to split leaves and
    // to overwrite; run lengths 1..=9 and the paper's 36.
    let key = || 0u64..1200;
    let b = || prop_oneof![1usize..10, Just(36usize)];
    prop_oneof![
        24 => (key(), any::<u8>()).prop_map(|(k, v)| MemOp::Put(k, v)),
        6 => key().prop_map(MemOp::Delete),
        2 => key().prop_map(MemOp::Get),
        2 => (key(), key()).prop_map(|(lo, hi)| MemOp::Range(lo, hi)),
        1 => b().prop_map(MemOp::Blocks),
        1 => (b(), 0usize..40, 1usize..12)
            .prop_map(|(b, start, len)| MemOp::RemoveWindow { b, start, len }),
        1 => prop_oneof![12 => Just(MemOp::RemoveNothing), 1 => Just(MemOp::RemoveEverything)],
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The leaf-array memtable against a `BTreeMap`, with the leaf
    /// structure checked after every step.
    #[test]
    fn memtable_matches_a_btreemap_model(tape in prop::collection::vec(arb_mem_op(), 0..900)) {
        use std::collections::BTreeMap;
        let mut mem = Memtable::new();
        let mut model: BTreeMap<u64, Record> = BTreeMap::new();
        let keys_of = |records: &[Record]| records.iter().map(|r| r.key).collect::<Vec<u64>>();
        for op in tape {
            match op {
                MemOp::Put(k, v) => {
                    let payload = Bytes::from(vec![v]);
                    mem.apply(Request::Put(k, payload.clone()));
                    model.insert(k, Record { key: k, op: OpKind::Put, payload });
                }
                MemOp::Delete(k) => {
                    mem.apply(Request::Delete(k));
                    model.insert(k, Record::delete(k));
                }
                MemOp::Get(k) => prop_assert_eq!(mem.get(k), model.get(&k)),
                MemOp::Range(lo, hi) => {
                    let want: Vec<&Record> = if lo > hi {
                        Vec::new()
                    } else {
                        model.range(lo..=hi).map(|(_, r)| r).collect()
                    };
                    prop_assert_eq!(mem.range(lo, hi).collect::<Vec<_>>(), want);
                }
                MemOp::Blocks(b) => {
                    let all: Vec<Record> = model.values().cloned().collect();
                    let blocks = mem.virtual_blocks(b);
                    let want: Vec<RunMeta> = all
                        .chunks(b)
                        .map(|c| RunMeta { min: c[0].key, max: c[c.len() - 1].key, count: c.len() as u32 })
                        .collect();
                    prop_assert_eq!(&blocks, &want);
                    // Every run range of a short table; of a long one, every
                    // range that starts at the front or ends at the (short)
                    // last block, and every single run.
                    let n = blocks.len();
                    for start in 0..n {
                        for end in start + 1..=n {
                            if n <= 24 || start == 0 || end == n || end == start + 1 {
                                let want = &all[start * b..(end * b).min(all.len())];
                                prop_assert_eq!(&mem.window(&blocks[start..end])[..], want);
                            }
                        }
                    }
                    prop_assert!(mem.window(&[]).is_empty());
                }
                MemOp::RemoveWindow { b, start, len } => {
                    let blocks = mem.virtual_blocks(b);
                    let start = start * blocks.len() / 40;
                    let window = &blocks[start..(start + len).min(blocks.len())];
                    let keys = keys_of(&mem.window(window));
                    mem.remove_keys(&keys);
                    keys.iter().for_each(|k| { model.remove(k); });
                }
                MemOp::RemoveEverything => {
                    mem.remove_keys(&model.keys().copied().collect::<Vec<u64>>());
                    model.clear();
                }
                MemOp::RemoveNothing => mem.remove_keys(&[]),
            }
            mem.validate().unwrap();
            prop_assert_eq!(mem.len(), model.len());
            prop_assert_eq!(mem.is_empty(), model.is_empty());
            prop_assert!(mem.iter().eq(model.values()));
        }
    }

    #[test]
    fn codec_round_trips(run in arb_run(12)) {
        let block = DataBlock::new(run.clone());
        let needed: usize = 16 + run.iter().map(Record::encoded_len).sum::<usize>();
        let frame = block.encode(needed.max(64)).unwrap();
        let back = DataBlock::decode(&frame).unwrap();
        prop_assert_eq!(back.iter().collect::<Vec<_>>(), run.clone());
        prop_assert_eq!(block.iter().collect::<Vec<_>>(), run.clone());
        // The builder gives the very bytes `new` + `encode` give — except
        // that it refuses to finish a block with nothing in it.
        let built = FrameBuilder::of_records(&run, frame.len()).unwrap().finish();
        if run.is_empty() {
            prop_assert!(built.is_err());
        } else {
            prop_assert_eq!(built.unwrap().frame(), &frame);
            // Second generation: `back` is a view of `frame` — what a merge
            // feeds the builder. Moving its records into the next frame must
            // give the same bytes in a buffer of its own, and what is read
            // out of the new block must view only that buffer.
            let first = frame.to_vec();
            let mut next = FrameBuilder::new(first.len());
            next.extend(&back, 0..back.len()).unwrap();
            drop((frame, back));
            let next = next.finish().unwrap();
            let frame2 = next.frame();
            prop_assert_eq!(&frame2[..], &first[..]);
            let (lo, hi) = (frame2.as_ptr() as usize, frame2.as_ptr() as usize + frame2.len());
            for r in next.iter() {
                let at = r.payload.as_ptr() as usize;
                prop_assert!(lo <= at && at + r.payload.len() <= hi);
            }
            prop_assert_eq!(DataBlock::decode(frame2).unwrap().iter().collect::<Vec<_>>(), run);
        }
    }

    #[test]
    fn codec_detects_any_single_bit_flip(run in arb_run(8), bit in 0usize..4096) {
        let block = DataBlock::new(run);
        let frame = block.encode(512).unwrap();
        let mut bad = frame.to_vec();
        let byte = bit / 8;
        bad[byte] ^= 1 << (bit % 8);
        // There are no dont-care positions: header, records and padding are
        // all covered.
        prop_assert!(DataBlock::decode(&Bytes::from(bad)).is_err());
    }

    #[test]
    fn decode_of_arbitrary_bytes_is_an_error_never_a_panic(
        junk in prop::collection::vec(any::<u8>(), 0..600),
        magic_first in any::<bool>(),
    ) {
        // Raw noise, and noise behind a valid magic and zeroed reserved word
        // so the parser proper (count bound, record walk) is reached.
        let mut bytes = junk;
        if magic_first && bytes.len() >= 16 {
            bytes[0..4].copy_from_slice(&0x4C53_4D42u32.to_le_bytes());
            bytes[12..16].fill(0);
        }
        prop_assert!(DataBlock::decode(&Bytes::from(bytes)).is_err());
    }

    #[test]
    fn decode_of_an_edited_frame_is_an_error_never_a_panic(
        run in arb_run(10),
        edits in prop::collection::vec((0usize..512, 1u16..256), 1..6),
    ) {
        let block = DataBlock::new(run);
        let frame = block.encode(512).unwrap();
        let mut bad = frame.to_vec();
        for (pos, xor) in edits {
            bad[pos] ^= xor as u8;
        }
        let unchanged = bad[..] == frame[..]; // edits at one position can cancel
        let result = DataBlock::decode(&Bytes::from(bad));
        prop_assert_eq!(result.is_ok(), unchanged);
    }

    #[test]
    fn choose_best_is_optimal(
        src_points in prop::collection::btree_set(0u64..2_000, 6..40),
        tgt_points in prop::collection::btree_set(0u64..2_000, 2..60),
        window in 1usize..6,
    ) {
        let src: Vec<RunMeta> = src_points
            .iter()
            .zip(src_points.iter().skip(1))
            .map(|(&a, &b)| RunMeta { min: a, max: b - 1, count: 4 })
            .collect();
        let target: Vec<BlockHandle> = tgt_points
            .iter()
            .zip(tgt_points.iter().skip(1))
            .map(|(&a, &b)| BlockHandle {
                id: sim_ssd::BlockId(0),
                min: a,
                max: b - 1,
                count: 4,
                tombstones: 0,
                bloom: None,
            })
            .collect();
        prop_assume!(src.len() > window && !target.is_empty());
        let got = choose_best_window(&src, &target, window);
        let best = (0..=(src.len() - window))
            .map(|s| window_overlap(&src, &target, Window { start: s, len: window }))
            .min()
            .unwrap();
        prop_assert_eq!(window_overlap(&src, &target, got), best);
    }

    #[test]
    fn memtable_extraction_partitions_contents(
        keys in prop::collection::btree_set(any::<u64>(), 1..200),
        start in 0usize..20,
        len in 1usize..10,
        b in 1usize..20,
    ) {
        let mut m = Memtable::new();
        for &k in &keys {
            m.apply(Request::Put(k, Bytes::new()));
        }
        let all: Vec<u64> = m.iter().map(|r| r.key).collect();
        let blocks = m.virtual_blocks(b);
        let window = start.min(blocks.len())..(start + len).min(blocks.len());
        let taken_keys: Vec<u64> = m.window(&blocks[window]).iter().map(|r| r.key).collect();
        m.remove_keys(&taken_keys);
        let left: Vec<u64> = m.iter().map(|r| r.key).collect();
        // The extracted window is exactly the positional slice, and the
        // remainder is everything else, both in order.
        let lo = (start * b).min(all.len());
        let hi = (lo + len * b).min(all.len());
        prop_assert_eq!(&taken_keys[..], &all[lo..hi]);
        let mut expect_left = all[..lo].to_vec();
        expect_left.extend_from_slice(&all[hi..]);
        prop_assert_eq!(left, expect_left);
    }

    /// The merge engine's output (with preservation ON) is logically
    /// identical to a model merge: upper run wins on key collisions, and
    /// tombstones disappear at the bottom level.
    #[test]
    fn merge_engine_equals_model_merge(
        upper in arb_run(60),
        lower_keys in prop::collection::btree_set(0u64..500, 0..80),
    ) {
        let store = Store::in_memory(2048, 1024, 64);
        const B: usize = 14;
        let engine = MergeEngine::new(&store, B, 0.2, true);

        // Build the target level from the lower run, one block per chunk.
        let lower: Vec<Record> =
            lower_keys.iter().map(|&k| Record::put(k, Vec::new())).collect();
        let mut target = lsm_tree::level::Level::new();
        for chunk in lower.chunks(B) {
            target.push(store.write_block(chunk.to_vec()).unwrap());
        }

        // Clamp upper keys to the same space for real collisions.
        let upper: Vec<Record> = {
            let mut m = std::collections::BTreeMap::new();
            for mut r in upper {
                r.key %= 500;
                m.insert(r.key, r);
            }
            m.into_values().collect()
        };

        // Model: upper wins; result has no tombstones (bottom level).
        let mut model: std::collections::BTreeMap<u64, Record> =
            lower.iter().map(|r| (r.key, r.clone())).collect();
        for r in &upper {
            match r.op {
                OpKind::Put => {
                    model.insert(r.key, r.clone());
                }
                OpKind::Delete => {
                    model.remove(&r.key);
                }
            }
        }

        engine.merge_into(&mut target, &[], MergeSource::Records(upper)).unwrap();
        // The level-wise waste check (§II-B case 4) is the caller's job,
        // exactly as in `LsmTree::do_merge`.
        if engine.needs_compaction(&target) {
            engine.compact_level(&mut target).unwrap();
        }
        target.validate(B, 0.2).unwrap();

        let mut got = Vec::new();
        for h in target.handles() {
            let block = store.read_block(h).unwrap();
            got.extend(block.iter());
        }
        let want: Vec<Record> = model.into_values().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn bloom_has_no_false_negatives(keys in prop::collection::btree_set(any::<u64>(), 0..300), bits in 2usize..16) {
        let keys: Vec<u64> = keys.into_iter().collect();
        let f = BloomFilter::build(&keys, bits);
        for &k in &keys {
            prop_assert!(f.may_contain(k));
        }
    }
}
