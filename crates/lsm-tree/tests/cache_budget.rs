//! What a cached row really occupies, against what it is charged, and
//! what the block layer asks of the allocator once it is warm: nothing the
//! size of a frame. Also what a manifest decoder reserves on the word of a
//! count the bytes cannot back: nothing near it.
//!
//! A binary of its own because it counts the process's live heap, and its
//! frame-sized allocations, with a global allocator (so its tests take
//! turns). Two stores over one device image, one with four times
//! the other's cache budget, are each filled with rows only; the
//! difference in live heap over the difference in entries is the cost of one
//! entry — everything else (the device image, the stores' fixed parts)
//! cancels.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use lsm_tree::manifest::LevelSnapshot;
use lsm_tree::store::{WalkCost, RECORD_ENTRY_OVERHEAD};
use lsm_tree::{BlockHandle, LsmConfig, Manifest, Record, Store};
use sim_ssd::{BlockDevice, FileDevice, MemDevice};

/// Live heap bytes, each allocation counted as the chunk glibc's malloc
/// carves for it: an 8-byte header, rounded up to 16, at least 32.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// Allocations of a frame's size or more so far.
static FRAME_SIZED: AtomicUsize = AtomicUsize::new(0);

/// The largest allocation so far.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// One test at a time: the counters are the process's.
static TURN: Mutex<()> = Mutex::new(());

fn chunk(size: usize) -> isize {
    ((size + 8 + 15) & !15).max(32) as isize
}

struct Counting;

// SAFETY: every call is passed through to `System` unchanged; the counter
// beside it touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(chunk(layout.size()), Ordering::Relaxed);
        FRAME_SIZED.fetch_add((layout.size() >= BLOCK_SIZE) as usize, Ordering::Relaxed);
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc`, passed on as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(chunk(layout.size()), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout, above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const BLOCK_SIZE: usize = 4096;
const PAYLOAD: usize = 100;
const BLOCKS: u64 = 6_000;
const PER_BLOCK: u64 = 36;

/// What a get that found its key in the first block it asked charges.
const ONE_READ: WalkCost = WalkCost { block_reads: 1, bloom_skips: 0 };

/// A store with an empty cache of `cache_blocks` over `device`, then two
/// gets in every block: more rows kept than either budget holds, each
/// key read once, so the blocks a cold cache takes in while it has room are
/// the first entries the hand meets and all of them go. Returns the live
/// heap the store holds and the number of entries in its cache.
fn filled_with_rows(
    device: &Arc<MemDevice>,
    handles: &[BlockHandle],
    cache_blocks: usize,
) -> (isize, u64) {
    let before = LIVE.load(Ordering::Relaxed);
    let store = Store::with_allocated(
        Arc::clone(device) as Arc<dyn BlockDevice>,
        cache_blocks,
        0,
        handles.iter().map(|h| h.id.raw()),
    );
    for nth in [3, 20] {
        for h in handles {
            let key = h.min + nth;
            let found = store
                .read_record(h, key, 0, ONE_READ, None)
                .unwrap()
                .expect("every block holds the key");
            assert_eq!((found.key, found.payload.len()), (key, PAYLOAD));
        }
    }
    let stats = store.cache_stats();
    assert!(stats.resident <= stats.capacity);
    let charged = (PAYLOAD + RECORD_ENTRY_OVERHEAD) as u64;
    assert!(stats.capacity - stats.resident < charged, "the cache is full");
    assert_eq!(stats.resident % charged, 0, "an entry that is not a row is still resident");
    let held = LIVE.load(Ordering::Relaxed) - before;
    drop(store);
    (held, stats.resident / charged)
}

fn full_block(b: u64) -> Vec<Record> {
    (0..PER_BLOCK).map(|i| Record::put(b * 1_000 + i, vec![i as u8; PAYLOAD])).collect()
}

#[test]
fn a_warm_block_layer_allocates_no_frame() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const WARM_UP: u64 = 500;
    const COUNTED: u64 = 1_000;
    let path = std::env::temp_dir().join(format!("lsm-cache-budget-{}.dev", std::process::id()));
    let device = Arc::new(FileDevice::create(&path, 2 * (WARM_UP + COUNTED)).unwrap());
    // Room for eight blocks: full after eight misses, pressed from then on.
    let store = Store::new(Arc::clone(&device) as Arc<dyn BlockDevice>, 8, 0);

    // 1 000 sealed merge outputs: built the way a merge builds them, landed
    // on the device, and cached while there is room; past it each is let
    // go at once.
    let mut handles = Vec::with_capacity((WARM_UP + COUNTED) as usize);
    let mut counted_from = 0;
    for b in 0..WARM_UP + COUNTED {
        if b == WARM_UP {
            counted_from = FRAME_SIZED.load(Ordering::Relaxed);
        }
        let mut frame = store.frame_builder(PER_BLOCK as usize);
        full_block(b).iter().for_each(|r| frame.push(r).unwrap());
        handles.push(store.write_frame(frame.finish().unwrap()).unwrap());
    }
    let allocated = FRAME_SIZED.load(Ordering::Relaxed) - counted_from;
    assert_eq!(allocated, 0, "{COUNTED} sealed frames allocated {allocated} frame-sized buffers");

    // 1 000 pressed misses: each reads its block into a frame, keeps a copy
    // of one record and drops the frame — into the next miss's hands.
    let get = |h: &BlockHandle| {
        let found = store
            .read_record(h, h.min + 3, 0, ONE_READ, None)
            .unwrap()
            .expect("every block holds the key");
        assert_eq!(found.payload.len(), PAYLOAD);
    };
    handles[..WARM_UP as usize].iter().for_each(get);
    let (reads, counted_from) = (device.io_snapshot().reads, FRAME_SIZED.load(Ordering::Relaxed));
    handles[WARM_UP as usize..].iter().for_each(get);
    let allocated = FRAME_SIZED.load(Ordering::Relaxed) - counted_from;
    assert_eq!(device.io_snapshot().reads - reads, COUNTED, "every counted get was a miss");
    assert_eq!(allocated, 0, "{COUNTED} pressed misses allocated {allocated} frame-sized buffers");
    let stats = store.cache_stats();
    assert!(stats.resident <= stats.capacity && stats.evictions > 0);
    drop(store);
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_cached_row_occupies_no_more_than_it_is_charged() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let device = Arc::new(MemDevice::with_block_size(BLOCKS, BLOCK_SIZE));
    let writer = Store::new(Arc::clone(&device) as Arc<dyn BlockDevice>, 1, 0);
    let handles: Vec<BlockHandle> =
        (0..BLOCKS).map(|b| writer.write_block(full_block(b)).unwrap()).collect();
    let (small_heap, small_entries) = filled_with_rows(&device, &handles, 128);
    let (large_heap, large_entries) = filled_with_rows(&device, &handles, 512);
    let per_entry = (large_heap - small_heap) as f64 / (large_entries - small_entries) as f64;
    let charged = (PAYLOAD + RECORD_ENTRY_OVERHEAD) as f64;
    println!(
        "{per_entry:.1} B a cached row of {PAYLOAD} B ({small_entries} and {large_entries} \
         entries), charged {charged}"
    );
    // 370.5 B at these two budgets (the entry counts move with the charge);
    // over the 408 pairs of budgets 40 to 496 blocks (every eighth), at
    // least 3x apart, the middle 80 % land between 296 and 405 B (where the
    // slab and the index stand between two doublings), and the charge is
    // the middle of that.
    assert!(
        (0.85 * charged..=1.15 * charged).contains(&per_entry),
        "a row occupies {per_entry:.1} B and is charged {charged}: re-measure RECORD_ENTRY_OVERHEAD"
    );
}

#[test]
fn a_manifest_count_the_bytes_cannot_hold_reserves_nothing() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // A body ends with its last count: the memtable's when there is no
    // level, else the last level's (here a level with no handle). The run
    // counts' and the per-level counters' count come after the config and
    // L0's cursor (the second after the five request counters). Set to
    // u32::MAX under a valid checksum, a handle count once reserved 128 MiB
    // before the walk found the bytes missing.
    let level = LevelSnapshot {
        handles: vec![],
        merges_since_compaction: 0,
        slack_budget: 0.0,
        waste_delta: 0,
        rr_cursor: None,
    };
    let head = 16 + 8 * 8 + 1;
    let (runs_at, stats_at) = (Some(head), Some(head + 4 + 5 * 8));
    for (levels, from_start, from_end) in
        [(vec![], None, 8), (vec![level], None, 4), (vec![], runs_at, 0), (vec![], stats_at, 0)]
    {
        let m = Manifest {
            config: LsmConfig::default(),
            memtable: vec![],
            mem_rr_cursor: None,
            levels,
            runs: vec![],
            stats: Default::default(),
        };
        let mut bytes = m.encode();
        let n = bytes.len();
        let at = from_start.unwrap_or(n - from_end);
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let sum = lsm_tree::checksum::sum64(0, &bytes[16..]);
        bytes[8..16].copy_from_slice(&sum.to_le_bytes());
        LARGEST.store(0, Ordering::Relaxed);
        assert!(Manifest::decode(&bytes).is_err());
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(largest <= n, "decoding {n} bytes allocated {largest} at once");
    }
}
