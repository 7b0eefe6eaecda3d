//! The merge kernel against a model and against its own past.
//!
//! * A property test merges a random `X` (records or blocks) into a random
//!   level `Y` under every switch the engine has and checks the result
//!   against a `BTreeMap` newest-wins model, the level invariants, the
//!   waste bookkeeping and the full decoder.
//! * Two fixed tapes pin what the kernel *does* — per-merge outcomes and
//!   the fences of every output block — to values recorded from the
//!   record-at-a-time kernel this one replaced: a rewrite of the kernel
//!   must move bytes differently, never blocks.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use lsm_tree::block::BlockHandle;
use lsm_tree::level::Level;
use lsm_tree::observe::{Event, SinkHandle, VecSink};
use lsm_tree::{
    DataBlock, LsmConfig, LsmTree, MergeEngine, MergeOutcome, MergeSource, PolicySpec, Record,
    Request, Store, TreeOptions,
};
use sim_ssd::{BlockDevice, MemDevice};

const BS: usize = 512;
const B: usize = 14; // (512 - 16) / 14 = 35 bytes a record: payloads up to 22
const EPS: f64 = 0.2;

/// SplitMix64: the tapes must not depend on a crate's generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn fences(level: &Level) -> Vec<(u64, u64, u32)> {
    level.handles().iter().map(|h| (h.min, h.max, h.count)).collect()
}

/// FNV-1a over a sequence of words: one number to pin a long sequence by.
fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x100_0000_01b3))
}

fn fold_fences(level: &Level) -> u64 {
    fold(fences(level).into_iter().flat_map(|(lo, hi, n)| [lo, hi, u64::from(n)]))
}

// ---------------------------------------------------------------------
// The kernel against a model.
// ---------------------------------------------------------------------

/// A sorted run of `len` records over `keys`: `salt`-filled payloads of
/// 0..=20 bytes, one record in four a tombstone.
fn arb_run(salt: u8, keys: Range<u64>, len: Range<usize>) -> impl Strategy<Value = Vec<Record>> {
    prop::collection::btree_map(keys, (0u8..4, 0usize..21), len).prop_map(move |run| {
        run.into_iter()
            .map(|(key, (kind, len))| match kind {
                0 => Record::delete(key),
                _ => Record::put(key, vec![salt; len]),
            })
            .collect()
    })
}

/// Write `run` as a level, one block per cut of 8..=14 records — any two
/// neighbours hold more than `B`, as the pairwise constraint wants. A tail
/// too short for a block is left out; returns what was written.
fn level_of(store: &Store, run: &[Record], cuts: &[usize]) -> (Level, Vec<Record>) {
    let mut level = Level::new();
    let mut at = 0;
    for &cut in cuts {
        if at + cut > run.len() {
            break;
        }
        level.push(store.write_block(run[at..at + cut].to_vec()).unwrap());
        at += cut;
    }
    (level, run[..at].to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn a_merge_matches_the_newest_wins_model(
        // X is either dense and inside Y's key range, so that Y's end blocks
        // reach past it, or a few keys far apart, so that whole blocks fit
        // between them. The deeper level is dense: its fences are narrow.
        runs in (
            arb_run(0x55, 0..600, 0..140),
            prop_oneof![arb_run(0xAA, 150..450, 0..90), arb_run(0xAA, 0..600, 2..5)],
            arb_run(0, 0..600, 0..300),
        ),
        cuts in prop::collection::vec(8usize..15, 48..49),
        switches in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        slack in 0u64..150,
        full_blocks in any::<bool>(),
    ) {
        let (y, x, deep) = runs;
        let (x_is_blocks, bottom, preserve, pairwise) = switches;
        let cuts = if full_blocks { vec![B; cuts.len()] } else { cuts };
        let dev = Arc::new(MemDevice::with_block_size(1 << 12, BS));
        // A cache smaller than the merge: inputs come off the device.
        let store = Store::new(Arc::clone(&dev) as Arc<dyn BlockDevice>, 4, 0);
        let engine = MergeEngine::new(&store, B, EPS, preserve).with_pairwise(pairwise);

        // Y is a level in good standing (the bottom level holds no
        // tombstones), with some slack banked so that preservation happens.
        let y: Vec<Record> = y.into_iter().filter(|r| !(bottom && r.is_tombstone())).collect();
        let (mut target, y) = level_of(&store, &y, &cuts);
        target.slack_budget = slack as f64;
        let below: Vec<Level> = if bottom { vec![] } else { vec![level_of(&store, &deep, &cuts).0] };
        let (x, src) = if x_is_blocks {
            let (level, x) = level_of(&store, &x, &cuts[7..]);
            (x, MergeSource::Blocks(level.handles().to_vec()))
        } else {
            (x.clone(), MergeSource::Records(x))
        };

        // The model: the newer record of a key stands; a tombstone that no
        // deeper level could still need is gone.
        let needed = |key: u64| below.iter().any(|l| l.key_in_range_of_some_block(key));
        let mut model: BTreeMap<u64, Record> = y.into_iter().map(|r| (r.key, r)).collect();
        model.extend(x.into_iter().map(|r| (r.key, r)));
        model.retain(|&key, r| !r.is_tombstone() || needed(key));

        let (slots, w) = (target.empty_slots(B) as i64, target.waste_delta);
        // Blocks that are neither the target's nor the source's.
        let src_blocks = if let MergeSource::Blocks(hs) = &src { hs.len() } else { 0 };
        let others = store.live_blocks() - (target.num_blocks() + src_blocks) as u64;
        let outcome = engine.merge_into(&mut target, &below, src).unwrap();
        // `w` follows the level's empty slots — exactly, when Y's blocks
        // are full. The empty slots of a Y block that is rewritten are
        // counted as leaving the level twice (as the kernel before this one
        // counted them), so otherwise `w` may run below the truth by at most
        // what Y had, and never above it.
        let drift = (target.empty_slots(B) as i64 - slots) - (target.waste_delta - w);
        prop_assert!((0..=slots).contains(&drift), "w is off by {drift}, Y had {slots}");
        prop_assert_eq!(store.live_blocks(), others + target.num_blocks() as u64, "a block leaked");
        prop_assert!(preserve || outcome.preserved == 0);

        if engine.wasteful(target.num_blocks(), target.records()) {
            engine.compact_level(&mut target).unwrap();
        }
        if pairwise {
            target.validate(B, EPS).unwrap();
        }
        // Every block of the result, as the device holds it, passes the
        // full decoder and is what its fence says it is.
        let mut got = Vec::new();
        for h in target.handles() {
            let block = DataBlock::decode(&dev.read(h.id).unwrap()).unwrap();
            prop_assert_eq!((block.min_key(), block.max_key(), block.len()), (h.min, h.max, h.count as usize));
            prop_assert_eq!(block.tombstones(), h.tombstones);
            got.extend(block.iter());
        }
        // An adopted block keeps a tombstone nobody needs any more (it is
        // harmless, and the point of adopting is not to look inside) —
        // except at the bottom, where none may arrive.
        prop_assert!(!bottom || got.iter().all(|r| !r.is_tombstone()));
        got.retain(|r| !r.is_tombstone() || needed(r.key));
        prop_assert_eq!(got, model.into_values().collect::<Vec<_>>());
    }
}

// ---------------------------------------------------------------------
// Fixed tape 1: the engine alone, records and blocks sources.
// ---------------------------------------------------------------------

/// A sorted run of `n` distinct keys below `space`: a third tombstones, the
/// rest puts with payloads of 0..=20 bytes.
fn tape_run(rng: &mut Rng, n: usize, space: u64) -> Vec<Record> {
    let mut run = BTreeMap::new();
    while run.len() < n {
        let key = rng.below(space);
        let record = if rng.below(3) == 0 {
            Record::delete(key)
        } else {
            Record::put(key, vec![key as u8; rng.below(21) as usize])
        };
        run.insert(key, record);
    }
    run.into_values().collect()
}

/// Thirty rounds of "merge a record run into L1 (L2 below it); once L1 holds
/// more than ten blocks, move four of them into L2 (the bottom)". Returns
/// every merge's outcome and both levels.
fn engine_tape(preserve: bool) -> (Vec<MergeOutcome>, Level, Level) {
    let store = Store::in_memory(1 << 14, BS, 64);
    let engine = MergeEngine::new(&store, B, EPS, preserve);
    let mut rng = Rng(0x5EED);
    let (mut l1, mut l2) = (Level::new(), Level::new());
    let mut outcomes = Vec::new();
    for round in 0..30usize {
        let run = tape_run(&mut rng, 40, 4_000);
        outcomes.push(
            engine
                .merge_into(&mut l1, std::slice::from_ref(&l2), MergeSource::Records(run))
                .unwrap(),
        );
        if engine.wasteful(l1.num_blocks(), l1.records()) {
            engine.compact_level(&mut l1).unwrap();
        }
        if l1.num_blocks() > 10 {
            let start = (round * 3) % (l1.num_blocks() - 4);
            let x: Vec<BlockHandle> = l1.handles()[start..start + 4].to_vec();
            // What stays behind keeps its bookkeeping.
            let mut rest = Level::new();
            for (i, h) in l1.handles().iter().enumerate() {
                if !(start..start + 4).contains(&i) {
                    rest.push(h.clone());
                }
            }
            rest.merges_since_compaction = l1.merges_since_compaction;
            rest.slack_budget = l1.slack_budget;
            rest.waste_delta = l1.waste_delta;
            l1 = rest;
            outcomes.push(engine.merge_into(&mut l2, &[], MergeSource::Blocks(x)).unwrap());
            if engine.wasteful(l2.num_blocks(), l2.records()) {
                engine.compact_level(&mut l2).unwrap();
            }
        }
    }
    (outcomes, l1, l2)
}

fn fold_outcomes(outcomes: &[MergeOutcome]) -> u64 {
    fold(outcomes.iter().flat_map(|o| [o.writes, o.preserved, o.reads, o.out_records, o.max_key]))
}

fn totals(outcomes: &[MergeOutcome]) -> (u64, u64, u64, u64) {
    outcomes.iter().fold((0, 0, 0, 0), |t, o| {
        (t.0 + o.writes, t.1 + o.preserved, t.2 + o.reads, t.3 + o.out_records)
    })
}

/// What one run of the engine tape is pinned by.
#[derive(Debug, PartialEq)]
struct EnginePin {
    merges: usize,
    /// Sums of `writes`, `preserved`, `reads`, `out_records`.
    totals: (u64, u64, u64, u64),
    /// Every outcome, folded.
    outcomes: u64,
    /// `(min, max, count)` of every block of L1 and of L2, folded.
    fences: (u64, u64),
    l2_head: [(u64, u64, u32); 4],
}

fn engine_pin(preserve: bool) -> EnginePin {
    let (outcomes, l1, l2) = engine_tape(preserve);
    // The first merges, spelled out: a drift shows here before it has to be
    // dug out of a hash.
    let o = |writes, reads, out_records, max_key| MergeOutcome {
        writes,
        preserved: 0,
        reads,
        out_records,
        max_key,
    };
    assert_eq!(outcomes[..3], [o(2, 0, 24, 3993), o(4, 2, 44, 3808), o(6, 4, 78, 3862)]);
    EnginePin {
        merges: outcomes.len(),
        totals: totals(&outcomes),
        outcomes: fold_outcomes(&outcomes),
        fences: (fold_fences(&l1), fold_fences(&l2)),
        l2_head: fences(&l2)[..4].try_into().unwrap(),
    }
}

#[test]
fn engine_tape_is_pinned_with_preservation() {
    let pinned = EnginePin {
        merges: 47,
        totals: (456, 29, 404, 6338),
        outcomes: 0xb9bf_8027_0a24_2a16,
        fences: (0xb1e2_488d_f2cb_977c, 0x5e71_0ed7_0a31_6850),
        l2_head: [(5, 122, 14), (127, 197, 14), (204, 290, 14), (298, 416, 14)],
    };
    assert_eq!(engine_pin(true), pinned);
}

#[test]
fn engine_tape_is_pinned_without_preservation() {
    let pinned = EnginePin {
        merges: 46,
        totals: (481, 0, 428, 6411),
        outcomes: 0x1377_e572_c2a5_6f58,
        fences: (0x0863_4097_efa3_5d7f, 0x2464_fc9f_f1f4_cb04),
        l2_head: [(0, 66, 14), (79, 148, 14), (155, 193, 14), (195, 274, 14)],
    };
    assert_eq!(engine_pin(false), pinned);
}

// ---------------------------------------------------------------------
// Fixed tape 2: a whole tree under ChooseBest.
// ---------------------------------------------------------------------

/// Load 3 000 scattered keys, then 6 000 requests of the paper's steady
/// state: insert a new key / delete the oldest live one, alternating.
/// Returns every `MergeFinish` as `(target, writes, reads, preserved)` and
/// the fences of every level.
fn tree_tape(preserve: bool) -> (Vec<[u64; 4]>, Vec<Level>) {
    let probe = Arc::new(VecSink::new());
    let cfg = LsmConfig {
        block_size: 256,
        payload_size: 4,
        k0_blocks: 4,
        gamma: 4,
        cache_blocks: 64,
        merge_rate: 0.25,
        ..LsmConfig::default()
    };
    let opts = TreeOptions::builder()
        .policy(PolicySpec::ChooseBest)
        .preserve_blocks(preserve)
        .sink(SinkHandle::new(Arc::clone(&probe) as _))
        .build();
    let mut tree = LsmTree::with_mem_device(cfg, opts, 1 << 16).unwrap();
    let key = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 24;
    let put = |i: u64| Request::Put(key(i), Bytes::from(vec![i as u8; 4]));
    for i in 0..3_000 {
        tree.apply(put(i)).unwrap();
    }
    for i in 0..3_000 {
        tree.apply(put(3_000 + i)).unwrap();
        tree.apply(Request::Delete(key(i))).unwrap();
    }
    let merges = probe
        .drain()
        .into_iter()
        .filter_map(|e| match e {
            Event::MergeFinish { target_level, writes, reads, preserved, .. } => {
                Some([target_level as u64, writes, reads, preserved])
            }
            _ => None,
        })
        .collect();
    (merges, tree.levels().iter().map(|l| (**l).clone()).collect())
}

/// What one run of the tree tape is pinned by.
#[derive(Debug, PartialEq)]
struct TreePin {
    merges: usize,
    /// Sums of `writes`, `reads`, `preserved` over every merge.
    totals: (u64, u64, u64),
    /// Every merge's `(target, writes, reads, preserved)`, folded.
    merges_fold: u64,
    /// Per level: blocks, records, and every `(min, max, count)` folded.
    levels: Vec<(usize, u64, u64)>,
    l1_head: [(u64, u64, u32); 3],
}

fn tree_pin(preserve: bool) -> TreePin {
    let (merges, levels) = tree_tape(preserve);
    let sum = |i: usize| merges.iter().map(|m| m[i]).sum::<u64>();
    TreePin {
        merges: merges.len(),
        totals: (sum(1), sum(2), sum(3)),
        merges_fold: fold(merges.iter().flatten().copied()),
        levels: levels.iter().map(|l| (l.num_blocks(), l.records(), fold_fences(l))).collect(),
        l1_head: fences(&levels[0])[..3].try_into().unwrap(),
    }
}

#[test]
fn choose_best_tape_is_pinned_with_preservation() {
    let pinned = TreePin {
        merges: 827,
        totals: (4681, 4393, 127),
        merges_fold: 0x82c8_87bb_433e_43f3,
        levels: vec![
            (13, 173, 0x5805_e7f2_fd48_2820),
            (58, 779, 0x9954_4a56_96c9_606e),
            (217, 2998, 0xae04_049e_2484_c00a),
        ],
        l1_head: [
            (425507583, 34880060943, 14),
            (36374639811, 67224235077, 14),
            (68718813945, 158922005710, 14),
        ],
    };
    assert_eq!(tree_pin(true), pinned);
}

#[test]
fn choose_best_tape_is_pinned_without_preservation() {
    let pinned = TreePin {
        merges: 823,
        totals: (4723, 4445, 0),
        merges_fold: 0xf763_9601_d471_3516,
        levels: vec![
            (15, 210, 0x5eda_e20b_1ac6_332e),
            (48, 672, 0xcc42_28ea_20fb_33e5),
            (215, 3002, 0xe201_1481_ebf8_48bc),
        ],
        l1_head: [
            (11475596672, 153396961165, 14),
            (157427426843, 205730934252, 14),
            (209761399929, 243600152931, 14),
        ],
    };
    assert_eq!(tree_pin(false), pinned);
}
