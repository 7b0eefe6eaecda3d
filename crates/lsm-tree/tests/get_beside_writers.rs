//! What a get waits for beside writers that commit large batches, and
//! what the writers put through meanwhile. A harness, not a check: it
//! asserts only that every call succeeds, and prints. Run it with
//!
//! ```text
//! cargo test --release -p lsm-tree --test get_beside_writers -- --ignored --nocapture
//! ```
//!
//! The tree is the `durable` benchmark's: one shard under
//! `CommitMode::Group`, inline merges over a memory device, 4 KiB blocks,
//! 100-byte payloads, `k0_blocks` = 1 000. Beside one writer and beside
//! two, each committing 8 192-put batches on keys of its own, a reader
//! gets a key already written, sleeps 200 µs, and gets again; then the
//! two writers run with no reader. Per setting it prints each epoch (a
//! fresh tree) and then all of them: the writers' kput/s, the gets'
//! p50 / p99 / max, and how often per commit a writer took the shard lock
//! and let it go at a yield point (the report's `write_holds` and
//! `write_yields`, where the tree has them).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use lsm_tree::{CommitMode, LsmConfig, PolicySpec, Request, ShardedLsmTree, TreeOptions};

const COMMIT_PUTS: u64 = 8192;
const COMMITS_PER_WRITER: u64 = 16;
const EPOCHS: usize = 3;
const READER_SLEEP: Duration = Duration::from_micros(200);

/// The key of put number `i`: an odd multiplier is a bijection, and it
/// scatters consecutive puts over the key space.
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// One epoch with `writers` writers, and a reader if `reader`: the
/// writers' kput/s, every get's latency, and the write-path lock holds and
/// yields per commit.
fn epoch(writers: u64, reader: bool, n: usize) -> (f64, Vec<Duration>, String) {
    let dir = std::env::temp_dir()
        .join(format!("lsm-get-beside-writers-{}-{writers}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = LsmConfig {
        block_size: 4096,
        payload_size: 100,
        k0_blocks: 1000,
        cache_blocks: 16_384,
        bloom_bits_per_key: 10,
        ..LsmConfig::default()
    };
    let opts = TreeOptions::builder()
        .policy(PolicySpec::ChooseBest)
        .preserve_blocks(true)
        .group_commit(CommitMode::Group)
        .build();
    let puts = writers * COMMITS_PER_WRITER * COMMIT_PUTS;
    let tree = ShardedLsmTree::with_wal_dir(cfg, opts, 1, puts / 8 + 4096, &dir).unwrap();
    // Puts writer 0 has committed: the reader's keys.
    let committed = AtomicU64::new(0);
    let writing = AtomicBool::new(reader);
    let (wall, lat) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let (mut lat, mut x) = (Vec::new(), 0x5eedu64);
            while writing.load(Ordering::SeqCst) {
                let n = committed.load(Ordering::SeqCst);
                if n > 0 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let k = key((x >> 16) % n * writers);
                    let t0 = Instant::now();
                    assert!(tree.get(k).unwrap().is_some());
                    lat.push(t0.elapsed());
                }
                std::thread::sleep(READER_SLEEP);
            }
            lat
        });
        let t0 = Instant::now();
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let (tree, committed) = (&tree, &committed);
                s.spawn(move || {
                    for c in 0..COMMITS_PER_WRITER {
                        let batch = (c * COMMIT_PUTS..(c + 1) * COMMIT_PUTS).map(|j| {
                            let k = key(j * writers + w);
                            Request::Put(k, Bytes::from(vec![k as u8; 100]))
                        });
                        tree.write_batch(batch.collect()).unwrap();
                        if w == 0 {
                            committed.store((c + 1) * COMMIT_PUTS, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().for_each(|h| h.join().unwrap());
        let wall = t0.elapsed();
        writing.store(false, Ordering::SeqCst);
        (wall, reader.join().unwrap())
    });
    let shard = tree.scheduler_section_json().get("rendezvous").items()[0].clone();
    let per_commit = |key| {
        let commits = (writers * COMMITS_PER_WRITER) as f64;
        shard.get(key).as_u64().map_or("-".into(), |n| format!("{:.1}", n as f64 / commits))
    };
    let holds = format!(
        "holds {} yields {} per commit",
        per_commit("write_holds"),
        per_commit("write_yields")
    );
    drop(tree);
    std::fs::remove_dir_all(&dir).ok();
    (puts as f64 / wall.as_secs_f64() / 1e3, lat, holds)
}

/// `p50 / p99 / max` of `lat`, in ms.
fn summary(lat: &mut [Duration]) -> String {
    if lat.is_empty() {
        return "no gets".into();
    }
    lat.sort_unstable();
    let at = |p: f64| lat[((lat.len() - 1) as f64 * p).round() as usize].as_secs_f64() * 1e3;
    format!(
        "get p50 {:.2} ms  p99 {:.2} ms  max {:.2} ms  ({} gets)",
        at(0.5),
        at(0.99),
        at(1.0),
        lat.len()
    )
}

#[test]
#[ignore = "harness: prints throughput and get latency, ~10 s in release"]
fn get_beside_batch_writers() {
    for (writers, reader) in [(1, true), (2, true), (2, false)] {
        let name = format!("writers {writers}{}", if reader { " + reader" } else { "" });
        let (mut rates, mut all) = (Vec::new(), Vec::new());
        for n in 0..EPOCHS {
            let (rate, mut lat, holds) = epoch(writers, reader, n);
            println!("{name:18} epoch {n}: {rate:5.0} kput/s  {}  {holds}", summary(&mut lat));
            rates.push(rate);
            all.extend(lat);
        }
        rates.sort_by(f64::total_cmp);
        let (lo, hi) = (rates[0], rates[EPOCHS - 1]);
        println!("{name:18} all    : {lo:.0}–{hi:.0} kput/s  {}", summary(&mut all));
    }
}
