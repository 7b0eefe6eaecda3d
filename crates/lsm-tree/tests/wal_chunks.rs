//! What a logged run leaves on the heap. A logged shard encodes a run's
//! WAL frames into one buffer per chunk of 256 requests before it takes
//! the shard lock, and L0 keeps views of those buffers: no put's payload
//! is an allocation of L0's own, the caller's payloads go with the batch,
//! and a chunk is freed when the last record viewing it leaves L0.
//!
//! A binary of its own because it counts the process's live allocations
//! of two sizes — a whole chunk's and a payload's — with a global
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use lsm_tree::{LsmConfig, Request, ShardedLsmTree, TreeOptions};

const PAYLOAD: usize = 100;

/// Bytes a put's frame takes in the log: a 12-byte frame header, then
/// `op u8 | key u64 | plen u32 | payload`.
const FRAME: usize = 12 + 13 + PAYLOAD;

/// A whole chunk's buffer: 256 frames, and not a byte of slack.
const CHUNK_BYTES: usize = 256 * FRAME;

/// Live allocations of exactly [`CHUNK_BYTES`] and of exactly [`PAYLOAD`].
static CHUNKS: AtomicIsize = AtomicIsize::new(0);
static PAYLOADS: AtomicIsize = AtomicIsize::new(0);

fn count(size: usize, by: isize) {
    match size {
        CHUNK_BYTES => CHUNKS.fetch_add(by, Ordering::Relaxed),
        PAYLOAD => PAYLOADS.fetch_add(by, Ordering::Relaxed),
        _ => 0,
    };
}

struct Counting;

// SAFETY: every call is passed through to `System` unchanged; the counters
// beside it touch no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 1);
        // SAFETY: the caller's contract for `alloc`, passed on as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(layout.size(), -1);
        // SAFETY: `ptr` came from `System.alloc` with this layout, above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> (isize, isize) {
    (CHUNKS.load(Ordering::Relaxed), PAYLOADS.load(Ordering::Relaxed))
}

#[test]
fn a_logged_runs_chunks_go_once_its_records_have_left_l0() {
    let dir = std::env::temp_dir().join(format!("lsm-wal-chunks-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = LsmConfig { payload_size: PAYLOAD, ..LsmConfig::default() };
    let t = ShardedLsmTree::with_wal_dir(cfg, TreeOptions::default(), 1, 1 << 16, &dir).unwrap();
    let (chunks, payloads) = live();
    let n = 20_000u64;
    let batch = (0..n).map(|k| Request::Put(k, vec![k as u8; PAYLOAD].into()));
    t.write_batch(batch.collect()).unwrap();
    let (held, kept) = (live().0 - chunks, live().1 - payloads);
    assert_eq!(kept, 0, "L0 kept {kept} of the batch's own payloads");
    let whole = (n as usize / 256) as isize;
    assert!(held > 0 && held <= whole, "{held} of the run's {whole} whole chunks held");
    // What L0 holds of the run views the chunks held, or the last one.
    let in_l0 = t.with_shard_read(0, |tree| tree.memtable().len()) as isize;
    assert!(in_l0 > 0 && in_l0 <= 256 * held + n as isize % 256, "{in_l0} records in L0");
    assert_eq!(t.get(n - 1).unwrap().as_deref(), Some(&[(n - 1) as u8; PAYLOAD][..]));
    t.flush().unwrap();
    drop(t);
    assert_eq!(live(), (chunks, payloads), "a chunk outlived the tree");
    std::fs::remove_dir_all(&dir).ok();
}
