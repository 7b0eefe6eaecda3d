//! The observability contract, end to end: event ordering, counter
//! agreement with scripted device access, and the zero-cost guarantee
//! that a disabled/[`NullSink`] run changes nothing observable.

use std::sync::Arc;

use lsm_tree::observe::{Event, MetricsSink, NullSink, SinkHandle, VecSink};
use lsm_tree::record::Record;
use lsm_tree::{LsmConfig, LsmTree, PolicySpec, Store, TreeOptions};
use sim_ssd::{BlockDevice, MemDevice};

fn cfg() -> LsmConfig {
    LsmConfig {
        block_size: 256,
        payload_size: 4,
        k0_blocks: 4,
        gamma: 4,
        cache_blocks: 64,
        merge_rate: 0.25,
        ..LsmConfig::default()
    }
}

fn fill(tree: &mut LsmTree, n: u64) {
    for k in 0..n {
        tree.put(k * 7 % n, vec![k as u8; 4]).unwrap();
    }
}

/// Flushes and merges arrive in their causal order: every memtable flush
/// is announced by a `PolicyDecision`, immediately followed by the flush
/// itself, then the bracketing `MergeStart`/`MergeFinish` pair for L1.
#[test]
fn flush_and_merge_events_arrive_in_order() {
    let probe = Arc::new(VecSink::new());
    let mut tree = LsmTree::with_mem_device(
        cfg(),
        TreeOptions::builder()
            .policy(PolicySpec::ChooseBest)
            .sink(SinkHandle::new(Arc::clone(&probe) as _))
            .build(),
        1 << 16,
    )
    .unwrap();
    fill(&mut tree, 3_000);

    // Keep only the tree-level lifecycle events (device/cache chatter is
    // interleaved but has its own tests).
    let lifecycle: Vec<Event> = probe
        .drain()
        .into_iter()
        .filter(|e| {
            matches!(
                e,
                Event::PolicyDecision { .. }
                    | Event::MemtableFlush { .. }
                    | Event::MergeStart { .. }
                    | Event::MergeFinish { .. }
            )
        })
        .collect();
    let flushes = lifecycle.iter().filter(|e| matches!(e, Event::MemtableFlush { .. })).count();
    assert!(flushes >= 5, "expected several flushes, saw {flushes}");

    // Each MergeStart must be closed by a matching MergeFinish before the
    // next merge begins (merges are sequential, never nested).
    let mut open: Option<(usize, bool)> = None;
    for ev in &lifecycle {
        match *ev {
            Event::MergeStart { target_level, full } => {
                assert!(open.is_none(), "nested MergeStart: {ev:?}");
                open = Some((target_level, full));
            }
            Event::MergeFinish { target_level, full, .. } => {
                assert_eq!(open.take(), Some((target_level, full)), "unmatched MergeFinish");
            }
            _ => {}
        }
    }
    assert!(open.is_none(), "dangling MergeStart at end of run");

    // Each flush is announced by a PolicyDecision for L1 right before it,
    // and opens a merge into L1 right after it.
    for (i, ev) in lifecycle.iter().enumerate() {
        if let Event::MemtableFlush { full, .. } = *ev {
            assert!(
                matches!(
                    lifecycle[i - 1],
                    Event::PolicyDecision { target_level: 1, full: f, .. } if f == full
                ),
                "flush not preceded by its PolicyDecision: {:?}",
                &lifecycle[i.saturating_sub(1)..=i]
            );
            assert!(
                matches!(
                    lifecycle[i + 1],
                    Event::MergeStart { target_level: 1, full: f } if f == full
                ),
                "flush not followed by MergeStart into L1: {:?}",
                &lifecycle[i..=i + 1]
            );
        }
    }
}

/// A scripted access pattern against a one-block cache produces exactly
/// the hit/miss/eviction counts the script implies, and the sink's device
/// counters agree with the device's own accounting.
#[test]
fn cache_counters_match_scripted_access() {
    let registry = Arc::new(MetricsSink::new());
    let counts = registry.metrics();
    let device = Arc::new(MemDevice::with_block_size(64, 256));
    let store = Store::new(Arc::clone(&device) as _, 1, 0); // one-block cache
    store.set_sink(SinkHandle::new(registry));

    let recs = |k: u64| vec![Record::put(k, vec![k as u8; 4])];
    // A written block enters the cache only into room: it never evicts.
    let a = store.write_block(recs(1)).unwrap(); // room: caches A
    let b = store.write_block(recs(2)).unwrap(); // full: B not cached, A stays

    store.read_block(&a).unwrap(); // hit (A cached)
    store.read_block(&b).unwrap(); // miss → device read, evicts A
    store.read_block(&b).unwrap(); // hit
    store.read_block(&a).unwrap(); // miss → device read, evicts B

    assert_eq!(counts.counter("cache.hits"), 2, "script has exactly two hits");
    assert_eq!(counts.counter("cache.misses"), 2, "script has exactly two misses");
    assert_eq!(counts.counter("cache.evictions"), 2, "B evicts A, A evicts B; writes evict none");
    assert_eq!(counts.counter("device.writes"), 2);
    assert_eq!(counts.counter("device.reads"), 2, "only the misses touch the device");
    let io = device.io_snapshot();
    assert_eq!(
        (io.writes, io.reads),
        (counts.counter("device.writes"), counts.counter("device.reads"))
    );
}

/// Observability is inert: the same workload run with no sink, with a
/// [`NullSink`], and with the counting [`MetricsSink`] produces identical
/// tree statistics and identical device I/O.
#[test]
fn null_sink_run_is_byte_identical() {
    let run = |sink: SinkHandle| {
        let mut tree = LsmTree::with_mem_device(
            cfg(),
            TreeOptions::builder().policy(PolicySpec::ChooseBest).sink(sink).build(),
            1 << 16,
        )
        .unwrap();
        fill(&mut tree, 4_000);
        for k in (0..4_000u64).step_by(97) {
            tree.get(k).unwrap();
        }
        let io = tree.store().io_snapshot();
        (tree.stats().clone(), io.reads, io.writes, io.trims, tree.store().cache_stats())
    };

    let bare = run(SinkHandle::none());
    let null = run(SinkHandle::of(NullSink));
    let counted = run(SinkHandle::of(MetricsSink::new()));
    assert_eq!(bare, null, "NullSink must not perturb the run");
    assert_eq!(bare, counted, "MetricsSink must not perturb the run");
}
