//! What a cached record really occupies, against what it is charged.
//!
//! A binary of its own because it counts the process's live heap with a
//! global allocator. Two stores over one device image, one with four times
//! the other's cache budget, are each filled with record entries only; the
//! difference in live heap over the difference in entries is the cost of one
//! entry — everything else (the device image, the stores' fixed parts)
//! cancels.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

use lsm_tree::store::RECORD_ENTRY_OVERHEAD;
use lsm_tree::{BlockHandle, Record, Store};
use sim_ssd::{BlockDevice, MemDevice};

/// Live heap bytes, each allocation counted as the chunk glibc's malloc
/// carves for it: an 8-byte header, rounded up to 16, at least 32.
static LIVE: AtomicIsize = AtomicIsize::new(0);

fn chunk(size: usize) -> isize {
    ((size + 8 + 15) & !15).max(32) as isize
}

struct Counting;

// SAFETY: every call is passed through to `System` unchanged; the counter
// beside it touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(chunk(layout.size()), Ordering::Relaxed);
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

/// A store with an empty cache of `cache_blocks` over `device`, then two
/// gets in every block: more record inserts than either budget holds, each
/// key read once, so the blocks a cold cache takes in while it has room are
/// the first entries the hand meets and all of them go. Returns the live
/// heap the store holds and the number of entries in its cache.
fn filled_with_records(
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
            let found = store.read_record(h, key).unwrap().expect("every block holds the key");
            assert_eq!((found.key, found.payload.len()), (key, PAYLOAD));
        }
    }
    let stats = store.cache_stats();
    assert!(stats.resident <= stats.capacity);
    let charged = (PAYLOAD + RECORD_ENTRY_OVERHEAD) as u64;
    assert!(stats.capacity - stats.resident < charged, "the cache is full");
    assert_eq!(stats.resident % charged, 0, "an entry that is not a record is still resident");
    let held = LIVE.load(Ordering::Relaxed) - before;
    drop(store);
    (held, stats.resident / charged)
}

#[test]
fn a_cached_record_occupies_no_more_than_it_is_charged() {
    let device = Arc::new(MemDevice::with_block_size(BLOCKS, BLOCK_SIZE));
    let writer = Store::new(Arc::clone(&device) as Arc<dyn BlockDevice>, 1, 0);
    let handles: Vec<BlockHandle> = (0..BLOCKS)
        .map(|b| {
            let records = (0..PER_BLOCK)
                .map(|i| Record::put(b * 1_000 + i, vec![i as u8; PAYLOAD]))
                .collect();
            writer.write_block(records).unwrap()
        })
        .collect();
    let (small_heap, small_entries) = filled_with_records(&device, &handles, 128);
    let (large_heap, large_entries) = filled_with_records(&device, &handles, 512);
    let per_entry = (large_heap - small_heap) as f64 / (large_entries - small_entries) as f64;
    let charged = (PAYLOAD + RECORD_ENTRY_OVERHEAD) as f64;
    println!(
        "{per_entry:.1} B a cached record of {PAYLOAD} B ({small_entries} and {large_entries} \
         entries), charged {charged}"
    );
    // 339 B at these two budgets; other pairs land between 301 and 405 B
    // (where the slab and the index stand between two doublings), and the
    // charge is the middle of that.
    assert!(
        (0.85 * charged..=1.15 * charged).contains(&per_entry),
        "a record occupies {per_entry:.1} B and is charged {charged}: re-measure RECORD_ENTRY_OVERHEAD"
    );
}
