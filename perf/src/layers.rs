//! Layer replay: each layer's public functions timed directly, from
//! outside, on seed-generated inputs of one fixed geometry — 36-record
//! 4 KiB blocks, a 9 000-record memtable, 2 500- and 25 000-block levels.
//!
//! Every function runs in five batches; the reported cost is the median
//! batch. These are the unit costs the reconciliation multiplies by each
//! workload's per-request counts.

use std::cell::RefCell;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lsm_tree::level::Level;
use lsm_tree::policy::window::{choose_best_window, runs_of_handles};
use lsm_tree::{
    BlockHandle, BloomFilter, CommitMode, DataBlock, LsmTree, Memtable, MergeEngine, MergeSource,
    Record, Request, Scheduler, ShardedLsmTree, Store, WriteAheadLog,
};
use sim_ssd::{BlockDevice, BlockId, FileDevice, LruCache, MemDevice};

use crate::env::{self, Size, Sizing, BLOCK_SIZE};
use crate::gen::{self, Perm, SplitMix64};
use crate::stats::{median, percentile, spread, Metric};

const B: usize = env::RECORDS_PER_BLOCK as usize;
const MEMTABLE_RECORDS: usize = 9_000;
const L1_BLOCKS: usize = 2_500;
const L2_BLOCKS: usize = 25_000;
const BATCHES: usize = 5;

struct Bench {
    batch_budget: Duration,
    out: Vec<Metric>,
}

impl Bench {
    /// Time `run` — which performs `ops` operations on what `setup` made —
    /// in five batches of at least one call each; setup is untimed.
    /// Returns the median cost of one operation in nanoseconds.
    fn time<S>(
        &mut self,
        ops: u64,
        mut setup: impl FnMut() -> S,
        mut run: impl FnMut(S),
    ) -> (f64, f64, u64) {
        let mut per_op = Vec::with_capacity(BATCHES);
        let mut calls = 0u64;
        for _ in 0..BATCHES {
            let mut spent = Duration::ZERO;
            let mut batch_calls = 0u64;
            while batch_calls == 0 || spent < self.batch_budget {
                let input = setup();
                let t = Instant::now();
                run(input);
                spent += t.elapsed();
                batch_calls += 1;
            }
            per_op.push(spent.as_nanos() as f64 / (batch_calls * ops) as f64);
            calls += batch_calls;
        }
        (median(&per_op), spread(&per_op), calls * ops)
    }

    /// Two variants of one operation, alternated call by call inside every
    /// batch so both meet the same machine conditions. Reports `a` under
    /// `name_a` and the median of the per-batch differences `b - a` under
    /// `name_diff`; returns both.
    fn pair<A, C>(
        &mut self,
        (name_a, name_diff): (&str, &str),
        ops: u64,
        (mut setup_a, mut run_a): (impl FnMut() -> A, impl FnMut(A)),
        (mut setup_b, mut run_b): (impl FnMut() -> C, impl FnMut(C)),
    ) -> (f64, f64) {
        let (mut a_ns, mut diff_ns) = (Vec::with_capacity(BATCHES), Vec::with_capacity(BATCHES));
        let mut calls = 0u64;
        for _ in 0..BATCHES {
            let (mut spent_a, mut spent_b, mut batch_calls) =
                (Duration::ZERO, Duration::ZERO, 0u64);
            while batch_calls == 0 || spent_a + spent_b < self.batch_budget * 2 {
                let input = setup_a();
                let t = Instant::now();
                run_a(input);
                spent_a += t.elapsed();
                let input = setup_b();
                let t = Instant::now();
                run_b(input);
                spent_b += t.elapsed();
                batch_calls += 1;
            }
            let per_op = |d: Duration| d.as_nanos() as f64 / (batch_calls * ops) as f64;
            a_ns.push(per_op(spent_a));
            diff_ns.push(per_op(spent_b) - per_op(spent_a));
            calls += batch_calls;
        }
        let n = calls * ops;
        let (a, diff) = (median(&a_ns), median(&diff_ns));
        if !name_a.is_empty() {
            self.push_batched(name_a, "ns", a, spread(&a_ns), n);
        }
        // A small difference of large numbers: its spread is that of the
        // per-batch differences, capped where a near-zero median blows the
        // ratio up.
        self.push_batched(name_diff, "ns", diff, spread(&diff_ns).min(10.0), n);
        (a, diff)
    }

    /// [`Bench::ns`] for a function that needs no per-call input.
    fn each(&mut self, name: &str, ops: u64, mut run: impl FnMut()) -> f64 {
        self.ns(name, ops, || (), |()| run())
    }

    /// A measured value under the five-batch rule.
    fn push_batched(&mut self, name: &str, unit: &'static str, value: f64, spread: f64, n: u64) {
        self.out.push(Metric {
            name: name.into(),
            unit,
            value,
            n,
            rounds: BATCHES,
            spread,
            per_round: Vec::new(),
        });
    }

    /// [`Bench::time`], reported as nanoseconds per operation.
    fn ns<S>(&mut self, name: &str, ops: u64, setup: impl FnMut() -> S, run: impl FnMut(S)) -> f64 {
        let (value, spread, n) = self.time(ops, setup, run);
        self.push_batched(name, "ns", value, spread, n);
        value
    }

    fn push(&mut self, name: &str, unit: &'static str, value: f64, n: u64) {
        self.out.push(Metric::single(name, unit, value, n));
    }
}

/// `n` distinct keys, ascending, scattered over the key domain.
fn sorted_keys(perm: &Perm, from: u64, n: usize) -> Vec<u64> {
    let mut keys: Vec<u64> = (from..from + n as u64).map(|i| perm.key(i)).collect();
    keys.sort_unstable();
    keys
}

fn records_of(keys: &[u64]) -> Vec<Record> {
    keys.iter().map(|&k| Record::put(k, gen::payload(k, 0))).collect()
}

fn type_err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("layer replay, {what}: {e}")
}

/// A level of `blocks` full blocks written through `store`.
fn build_level(store: &Store, keys: &[u64]) -> Result<Level, String> {
    let mut level = Level::new();
    for chunk in keys.chunks(B) {
        level.push(store.write_block(records_of(chunk)).map_err(type_err("write_block"))?);
    }
    Ok(level)
}

/// Fence entries only — what level search and window choice look at.
fn fence_level(keys: &[u64]) -> Level {
    let mut level = Level::new();
    for (i, chunk) in keys.chunks(B).enumerate() {
        level.push(BlockHandle {
            id: BlockId(i as u64),
            min: chunk[0],
            max: chunk[chunk.len() - 1],
            count: chunk.len() as u32,
            tombstones: 0,
            bloom: None,
        });
    }
    level
}

pub fn replay(sizing: &Sizing, seed: u64, scratch: &Path) -> Result<Vec<Metric>, String> {
    let mut b = Bench {
        batch_budget: Duration::from_millis(sizing.layer_budget_ms) / BATCHES as u32,
        out: Vec::new(),
    };
    let perm = Perm::new(seed);
    let mut rng = SplitMix64::new(seed ^ 0x6c61_7965);

    devices(&mut b, scratch, &mut rng)?;
    cache(&mut b, &perm);
    block_and_bloom(&mut b, &perm, &mut rng)?;
    memtable(&mut b, &perm, &mut rng);
    level_and_policy(&mut b, &perm, &mut rng);
    store(&mut b, &perm, scratch)?;
    merge(&mut b, &perm)?;
    tree(&mut b, sizing, &perm, &mut rng, scratch)?;
    wal(&mut b, sizing, &perm, scratch)?;
    Ok(b.out)
}

fn devices(b: &mut Bench, scratch: &Path, rng: &mut SplitMix64) -> Result<(), String> {
    const BLOCKS: u64 = 4096;
    const RUN: usize = 64;
    let frame = Bytes::from(vec![0xA5u8; BLOCK_SIZE]);
    let mem = MemDevice::with_block_size(BLOCKS, BLOCK_SIZE);
    let file = FileDevice::create(scratch.join("replay-device.img"), BLOCKS)
        .map_err(type_err("file device"))?;
    for id in 0..BLOCKS {
        mem.write(BlockId(id), &frame).map_err(type_err("mem write"))?;
        file.write(BlockId(id), &frame).map_err(type_err("file write"))?;
    }
    let ids: Vec<BlockId> = (0..1024).map(|_| BlockId(rng.below(BLOCKS))).collect();
    let n = ids.len() as u64;
    let devs: [(&str, &dyn BlockDevice); 2] = [("mem", &mem), ("file", &file)];
    for (name, dev) in devs {
        b.each(&format!("device.{name}.read_ns"), n, || {
            for &id in &ids {
                black_box(dev.read(id).expect("replay read"));
            }
        });
        b.each(&format!("device.{name}.write_ns"), n, || {
            for &id in &ids {
                dev.write(id, &frame).expect("replay write");
            }
        });
    }
    // 64 adjacent ids per call: what one coalesced pread/pwrite moves.
    let runs: Vec<Vec<BlockId>> = (0..16)
        .map(|_| {
            let first = rng.below(BLOCKS - RUN as u64);
            (first..first + RUN as u64).map(BlockId).collect()
        })
        .collect();
    let blocks = (runs.len() * RUN) as u64;
    b.each("device.file.read_many_ns_per_block", blocks, || {
        for run in &runs {
            for r in file.read_many(run) {
                black_box(r.expect("replay read_many"));
            }
        }
    });
    let batches: Vec<Vec<(BlockId, Bytes)>> =
        runs.iter().map(|run| run.iter().map(|&id| (id, frame.clone())).collect()).collect();
    b.each("device.file.write_many_ns_per_block", blocks, || {
        for batch in &batches {
            for r in file.write_many(batch) {
                r.expect("replay write_many");
            }
        }
    });
    Ok(())
}

fn cache(b: &mut Bench, perm: &Perm) {
    const CAP: usize = 1024;
    // Every entry owns a full 36-record block, as in the store: an eviction
    // pays for freeing one.
    let template = DataBlock::new(records_of(&sorted_keys(perm, 1 << 27, B)));
    let fresh = || Arc::new(template.clone());
    let mut lru: LruCache<u64, Arc<DataBlock>> = LruCache::new(CAP);
    for k in 0..CAP as u64 {
        lru.insert(k, fresh());
    }
    let mut rng = SplitMix64::new(1);
    let hits: Vec<u64> = (0..4096).map(|_| rng.below(CAP as u64)).collect();
    b.each("cache.hit_ns", hits.len() as u64, || {
        for k in &hits {
            black_box(lru.get(k));
        }
    });
    // A miss followed by the insert that evicts the coldest entry — what a
    // cache-missing block read pays in the cache itself.
    let mut next = CAP as u64;
    b.ns(
        "cache.miss_insert_ns",
        256,
        || (0..256).map(|_| fresh()).collect::<Vec<_>>(),
        |blocks| {
            for block in blocks {
                black_box(lru.get(&next));
                lru.insert(next, block);
                next += 1;
            }
        },
    );
}

fn block_and_bloom(b: &mut Bench, perm: &Perm, rng: &mut SplitMix64) -> Result<(), String> {
    const BLOCKS: usize = 256;
    let keys = sorted_keys(perm, 0, BLOCKS * B);
    let blocks: Vec<DataBlock> = keys.chunks(B).map(|c| DataBlock::new(records_of(c))).collect();
    let frames: Vec<Bytes> = blocks
        .iter()
        .map(|blk| blk.encode(BLOCK_SIZE))
        .collect::<Result<_, _>>()
        .map_err(type_err("encode"))?;
    b.each("block.encode_ns", BLOCKS as u64, || {
        for blk in &blocks {
            black_box(blk.encode(BLOCK_SIZE).expect("replay encode"));
        }
    });
    b.each("block.decode_ns", BLOCKS as u64, || {
        for f in &frames {
            black_box(DataBlock::decode(f).expect("replay decode"));
        }
    });
    let probes: Vec<(usize, u64)> = (0..4096)
        .map(|_| {
            let blk = rng.below(BLOCKS as u64) as usize;
            (blk, keys[blk * B + rng.below(B as u64) as usize])
        })
        .collect();
    b.each("block.find_ns", probes.len() as u64, || {
        for &(blk, key) in &probes {
            black_box(blocks[blk].find(key));
        }
    });

    // Per-block filters: 36 keys at 10 bits each, as the store builds them.
    let key_sets: Vec<&[u64]> = keys.chunks(B).collect();
    b.each("bloom.build_ns_per_key", (BLOCKS * B) as u64, || {
        for set in &key_sets {
            black_box(BloomFilter::build(set, 10));
        }
    });
    let filters: Vec<BloomFilter> = key_sets.iter().map(|s| BloomFilter::build(s, 10)).collect();
    b.each("bloom.probe_ns", probes.len() as u64, || {
        for &(blk, key) in &probes {
            // Half present, half (key + 1) almost surely absent.
            black_box(filters[blk].may_contain(key + (key & 1)));
        }
    });
    Ok(())
}

fn memtable(b: &mut Bench, perm: &Perm, rng: &mut SplitMix64) {
    let tape: Vec<Request> = (0..MEMTABLE_RECORDS as u64)
        .map(|i| {
            let k = perm.key(i);
            Request::Put(k, gen::payload(k, 0))
        })
        .collect();
    // Fill an empty memtable to 9 000 records: the mean insert on the way.
    b.ns(
        "memtable.insert_ns",
        tape.len() as u64,
        || tape.clone(),
        |tape| {
            let mut m = Memtable::new();
            for req in tape {
                m.apply(req);
            }
            black_box(m.len());
        },
    );
    let mut full = Memtable::new();
    for req in tape.iter().cloned() {
        full.apply(req);
    }
    let probes: Vec<u64> =
        (0..4096).map(|_| perm.key(rng.below(2 * MEMTABLE_RECORDS as u64))).collect();
    b.each("memtable.get_ns", probes.len() as u64, || {
        for &k in &probes {
            black_box(full.get(k));
        }
    });
}

fn level_and_policy(b: &mut Bench, perm: &Perm, rng: &mut SplitMix64) {
    let l2_keys = sorted_keys(perm, 1 << 24, L2_BLOCKS * B);
    let l2 = fence_level(&l2_keys);
    let probes: Vec<u64> =
        (0..4096).map(|_| l2_keys[rng.below(l2_keys.len() as u64) as usize]).collect();
    b.each("level.find_block_ns", probes.len() as u64, || {
        for &k in &probes {
            black_box(l2.find_block_for(k));
        }
    });

    // ChooseBest's window search, at the two shapes the geometry gives:
    // a 250-run memtable over a 2 500-block level (window δ·250 = 17), and
    // that level over a 25 000-block one (window δ·2 500 = 175).
    let l1_keys = sorted_keys(perm, 1 << 26, L1_BLOCKS * B);
    let l1 = fence_level(&l1_keys);
    let mut mem = Memtable::new();
    for i in 0..MEMTABLE_RECORDS as u64 {
        mem.apply(Request::Delete(perm.key((1 << 28) + i)));
    }
    let mem_runs = mem.virtual_blocks(B);
    let (value, sp, n) = b.time(
        1,
        || (),
        |()| {
            black_box(choose_best_window(&mem_runs, l1.handles(), 17));
        },
    );
    b.push_batched("policy.choose_l0_us", "us", value / 1e3, sp, n);
    let l1_runs = runs_of_handles(l1.handles());
    let (value, sp, n) = b.time(
        1,
        || (),
        |()| {
            black_box(choose_best_window(&l1_runs, l2.handles(), 175));
        },
    );
    b.push_batched("policy.choose_l1_us", "us", value / 1e3, sp, n);
}

/// The store over a buffered file device, as `ingest` and `read` use it.
fn store(b: &mut Bench, perm: &Perm, scratch: &Path) -> Result<(), String> {
    const BLOCKS: usize = 256;
    let keys = sorted_keys(perm, 1 << 30, BLOCKS * B);
    let chunks: Vec<Vec<Record>> = keys.chunks(B).map(records_of).collect();
    let open = |name: &str, cache_blocks: usize| -> Result<Store, String> {
        let dev = FileDevice::create(scratch.join(name), 8 * BLOCKS as u64)
            .map_err(type_err("file device"))?;
        Ok(Store::new(Arc::new(dev), cache_blocks, 10))
    };

    let st = open("replay-store.img", 4 * BLOCKS)?;
    let written: RefCell<Vec<BlockHandle>> = RefCell::new(Vec::new());
    let free_written = |store: &Store| {
        for h in written.borrow_mut().drain(..) {
            store.free_block(&h).expect("replay free");
        }
    };
    b.ns(
        "store.write_block_ns",
        BLOCKS as u64,
        || {
            free_written(&st);
            chunks.clone()
        },
        |chunks| {
            for recs in chunks {
                written.borrow_mut().push(st.write_block(recs).expect("replay write_block"));
            }
        },
    );
    // The last batch stays resident for the cache-hit reads.
    let resident = written.borrow().clone();
    b.each("store.read_block_hit_ns", BLOCKS as u64, || {
        for h in &resident {
            black_box(st.read_block(h).expect("replay read_block"));
        }
    });

    // A 16-block cache under a 256-block cycle: every read misses, reads
    // the file and decodes.
    let cold = open("replay-store-cold.img", 16)?;
    let cold_handles: Vec<BlockHandle> = chunks
        .iter()
        .map(|c| cold.write_block(c.clone()))
        .collect::<Result<_, _>>()
        .map_err(type_err("write_block"))?;
    b.each("store.read_block_miss_ns", BLOCKS as u64, || {
        for h in &cold_handles {
            black_box(cold.read_block(h).expect("replay read_block"));
        }
    });

    // Write batching: stage 64 blocks, then land them with one flush.
    const STAGE: usize = 64;
    let batch_store = open("replay-store-batch.img", 4 * BLOCKS)?;
    written.borrow_mut().clear();
    let stage_chunks: Vec<Vec<Record>> = chunks[..STAGE].to_vec();
    let (stage_ns, sp, n) = b.time(
        STAGE as u64,
        || stage_chunks.clone(),
        |chunks| {
            let mut wb = batch_store.write_batch();
            for c in chunks {
                black_box(wb.stage(c).expect("replay stage"));
            }
            // Dropping the batch unflushed releases the staged ids.
        },
    );
    b.push_batched("store.batch_stage_ns_per_block", "ns", stage_ns, sp, n);
    // Stage + flush together, minus the staging cost measured above.
    let (both_ns, sp, n) = b.time(
        STAGE as u64,
        || {
            free_written(&batch_store);
            stage_chunks.clone()
        },
        |chunks| {
            let mut wb = batch_store.write_batch();
            for c in chunks {
                written.borrow_mut().push(wb.stage(c).expect("replay stage"));
            }
            wb.flush().expect("replay flush");
        },
    );
    b.push_batched("store.batch_flush_ns_per_block", "ns", (both_ns - stage_ns).max(0.0), sp, n);
    Ok(())
}

/// `MergeEngine::merge_into`: a 9 000-record memtable into a 2 500-block
/// level on a memory device, with and without block preservation.
fn merge(b: &mut Bench, perm: &Perm) -> Result<(), String> {
    let level_keys = sorted_keys(perm, 1 << 31, L1_BLOCKS * B);
    let src = records_of(&sorted_keys(perm, 1 << 29, MEMTABLE_RECORDS));
    let mut writes = 0u64;
    for (name, preserve) in [("merge.krecs_s.preserve", true), ("merge.krecs_s.rewrite", false)] {
        let mut failure = None;
        let (ns_per_rec, sp, n) = b.time(
            MEMTABLE_RECORDS as u64,
            || {
                let store = Store::new(
                    Arc::new(MemDevice::with_block_size(4 * L1_BLOCKS as u64, BLOCK_SIZE)),
                    2 * L1_BLOCKS,
                    10,
                );
                let level = build_level(&store, &level_keys).expect("replay level");
                (store, level, src.clone())
            },
            |(store, mut level, src)| {
                let engine = MergeEngine::new(&store, B, 0.2, preserve);
                match engine.merge_into(&mut level, &[], MergeSource::Records(src)) {
                    Ok(outcome) => writes = outcome.writes,
                    Err(e) => failure = Some(e.to_string()),
                }
            },
        );
        if let Some(e) = failure {
            return Err(format!("layer replay, merge_into: {e}"));
        }
        b.push_batched(name, "krec/s", 1e6 / ns_per_rec, sp, n);
        if preserve {
            let per_krec = writes as f64 / (MEMTABLE_RECORDS as f64 / 1e3);
            b.push("merge.blocks_per_krec", "ratio", per_krec, MEMTABLE_RECORDS as u64);
            // What the reconciliation multiplies: merge time per block the
            // merge writes (merging, encode, bloom build, memory-device write).
            let us = ns_per_rec * MEMTABLE_RECORDS as f64 / writes.max(1) as f64 / 1e3;
            b.push("merge.us_per_block_written", "us", us, writes);
        }
    }
    Ok(())
}

/// A bare `LsmTree` and a one-shard `ShardedLsmTree` on the same tape
/// (their difference is the front-end's overhead), and the duration of
/// every background-style maintenance step.
fn tree(
    b: &mut Bench,
    sizing: &Sizing,
    perm: &Perm,
    rng: &mut SplitMix64,
    scratch: &Path,
) -> Result<(), String> {
    let puts: usize = if sizing.size == Size::Smoke { 8_000 } else { 60_000 };
    let tape: Vec<Request> = (0..puts as u64)
        .map(|i| {
            let k = perm.key((1 << 33) + i);
            Request::Put(k, gen::payload(k, 0))
        })
        .collect();
    let cfg = env::config(sizing.k0_blocks, 16_384);
    let opts = || env::options(Scheduler::Inline, CommitMode::Buffered);
    let blocks = puts as u64 / 4 + 4096;
    let bare = || LsmTree::with_mem_device(cfg.clone(), opts(), blocks).expect("replay tree");
    let sharded =
        || ShardedLsmTree::with_mem_devices(cfg.clone(), opts(), 1, blocks).expect("replay tree");

    let apply_bare = |(mut t, tape): (LsmTree, Vec<Request>)| {
        for req in tape {
            t.apply(req).expect("replay put");
        }
    };
    let apply_sharded = |(t, tape): (ShardedLsmTree, Vec<Request>)| {
        for req in tape {
            t.apply(req).expect("replay put");
        }
    };
    b.pair(
        ("tree.put_ns", "sharded.put_overhead_ns"),
        puts as u64,
        (|| (bare(), tape.clone()), apply_bare),
        (|| (sharded(), tape.clone()), apply_sharded),
    );
    // The same tape through a WAL-backed shard with buffered commits: what
    // the logged write path adds over the bare tree, the append included.
    let wal_dir = scratch.join("replay-wal-put");
    let logged = || {
        std::fs::create_dir_all(&wal_dir).expect("replay wal dir");
        ShardedLsmTree::with_wal_dir(cfg.clone(), opts(), 1, blocks, &wal_dir).expect("replay tree")
    };
    b.pair(
        ("", "sharded.wal_put_overhead_ns"),
        puts as u64,
        (|| (bare(), tape.clone()), apply_bare),
        (|| (logged(), tape.clone()), apply_sharded),
    );

    let mut loaded = bare();
    let loaded_sharded = sharded();
    for req in tape.iter().cloned() {
        loaded.apply(req.clone()).map_err(type_err("put"))?;
        loaded_sharded.apply(req).map_err(type_err("put"))?;
    }
    let probes: Vec<u64> =
        (0..8192).map(|_| perm.key((1 << 33) + rng.below(puts as u64))).collect();
    b.pair(
        ("tree.get_ns", "sharded.get_overhead_ns"),
        probes.len() as u64,
        (
            || (),
            |()| {
                for &k in &probes {
                    black_box(loaded.get(k).expect("replay get"));
                }
            },
        ),
        (
            || (),
            |()| {
                for &k in &probes {
                    black_box(loaded_sharded.get(k).expect("replay get"));
                }
            },
        ),
    );

    // What a background worker does per lock hold: buffer, seal when L0 is
    // full, then one `maintenance_step` at a time, each timed.
    let mut stepped = LsmTree::with_mem_device(
        cfg.clone(),
        env::options(Scheduler::background(), CommitMode::Buffered),
        blocks * 4,
    )
    .map_err(type_err("tree"))?;
    let mut steps: Vec<u64> = Vec::new();
    for round in 0..4u64 {
        for req in &tape {
            let k = req.key();
            stepped
                .apply_buffered(Request::Put(k, gen::payload(k, round as u32)))
                .map_err(type_err("put"))?;
            if stepped.mem_at_capacity() {
                stepped.seal_memtable();
                loop {
                    let t = Instant::now();
                    let did = stepped.maintenance_step().map_err(type_err("maintenance_step"))?;
                    if !did {
                        break;
                    }
                    steps.push(t.elapsed().as_nanos() as u64);
                }
            }
        }
    }
    steps.sort_unstable();
    if steps.is_empty() {
        steps.push(0);
    }
    for (name, p) in
        [("tree.step_ms_p50", 50.0), ("tree.step_ms_p99", 99.0), ("tree.step_ms_max", 100.0)]
    {
        b.push(name, "ms", percentile(&steps, p) as f64 / 1e6, steps.len() as u64);
    }
    Ok(())
}

fn wal(b: &mut Bench, sizing: &Sizing, perm: &Perm, scratch: &Path) -> Result<(), String> {
    let tape: Vec<Request> = (0..1024u64)
        .map(|i| {
            let k = perm.key((1 << 34) + i);
            Request::Put(k, gen::payload(k, 0))
        })
        .collect();
    let mut log =
        WriteAheadLog::create(scratch.join("replay.wal")).map_err(type_err("wal create"))?;
    b.each("wal.append_ns", tape.len() as u64, || {
        for req in &tape {
            black_box(log.append(req).expect("replay append"));
        }
    });
    // One append + one fsync on the data directory's filesystem. The p50 of
    // the single samples is the sandbox disk's fsync, reported as such.
    let mut samples: Vec<u64> = Vec::new();
    b.each("wal.sync_ns", 1, || {
        let t = Instant::now();
        log.append(&tape[0]).expect("replay append");
        log.sync().expect("replay sync");
        samples.push(t.elapsed().as_nanos() as u64);
    });
    samples.sort_unstable();
    b.push(
        "wal.disk.fsync_p50_us",
        "us",
        percentile(&samples, 50.0) as f64 / 1e3,
        samples.len() as u64,
    );
    drop(log);

    // Two writers, one put per group commit, for a fixed time: how many
    // puts share an fsync on this disk.
    let dir = scratch.join("replay-wal-disk");
    std::fs::create_dir_all(&dir).map_err(type_err("wal dir"))?;
    let tree = ShardedLsmTree::with_wal_dir(
        env::config(sizing.durable_k0_blocks, 4096),
        env::options(Scheduler::Inline, CommitMode::Group),
        1,
        1 << 16,
        &dir,
    )
    .map_err(type_err("wal tree"))?;
    let run_for = Duration::from_millis(sizing.layer_budget_ms * 6);
    let t0 = Instant::now();
    let counts: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|w| {
                let (tree, perm) = (&tree, perm);
                scope.spawn(move || {
                    let mut i = 0u64;
                    while t0.elapsed() < run_for {
                        let k = perm.key((1 << 35) + 2 * i + w);
                        tree.put(k, gen::payload(k, 0)).expect("replay durable put");
                        i += 1;
                    }
                    i
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("wal writer panicked")).collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    let puts: u64 = counts.iter().sum();
    b.push("wal.disk.put_kops", "kops/s", puts as f64 / secs / 1e3, puts);
    b.push("wal.disk.puts_per_fsync", "ratio", puts as f64 / tree.wal_fsyncs().max(1) as f64, puts);
    Ok(())
}
