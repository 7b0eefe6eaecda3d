//! The causal-tracing contract, end to end.
//!
//! Three pillars:
//!
//! 1. **Observer effect** — attaching the full exporter pipeline (Chrome
//!    trace, Prometheus registry, the windowed engine, …) must not change a
//!    single device frame or tree counter relative to an untraced run.
//! 2. **Conservation** — every device write either carries a span
//!    attribution or is explicitly unattributed, and the two buckets sum
//!    to the device's own counters, per shard.
//! 3. **Attribution** — each `MergeFinish.writes` equals the device
//!    writes attributed to *that* merge's span: in-merge pairwise fixes
//!    are inside, seam fixes and target compactions are not.

use std::sync::Arc;

use lsm_tree::observe::trace::TraceEventKind;
use lsm_tree::observe::{
    validate_health, validate_tail, ChromeTraceSink, Event, HealthSink, Json, MetricsSink,
    NullSink, SinkHandle, SpanKind, TickClock, TraceEvent, VecSink,
};
use lsm_tree::{LsmConfig, LsmTree, PolicySpec, ShardedLsmTree, TreeOptions};
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

/// Seeded mixed workload: puts, deletes, and lookups over a skewed key
/// space — enough volume to cascade several levels deep.
fn drive(tree: &mut LsmTree, n: u64) {
    let mut x = 0x243F_6A88_85A3_08D3u64;
    for i in 0..n {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let key = (x >> 17) % 4_096;
        match i % 11 {
            10 => tree.delete(key).unwrap(),
            7 => {
                tree.get(key).unwrap();
            }
            _ => tree.put(key, vec![(key % 251) as u8; 4]).unwrap(),
        }
    }
}

fn build(device: Arc<MemDevice>, sink: SinkHandle) -> LsmTree {
    LsmTree::new(
        cfg(),
        TreeOptions::builder()
            .policy(PolicySpec::ChooseBest)
            .preserve_blocks(true)
            .sink(sink)
            .build(),
        device as Arc<dyn BlockDevice>,
    )
    .unwrap()
}

/// Every consumer the crate ships, on one tick-clock handle.
fn full_pipeline(recorder: &Arc<VecSink>, engine: &Arc<HealthSink>) -> SinkHandle {
    SinkHandle::with_clock(Arc::new(TickClock::new()))
        .and(Arc::new(VecSink::new()))
        .and(Arc::new(ChromeTraceSink::new(std::io::sink())))
        .and(Arc::clone(recorder) as _)
        .and(Arc::clone(engine) as _)
        .and(Arc::new(MetricsSink::new()))
}

/// The windowed engine's tail report, checked: it validates (per-exemplar
/// phase sums included). Returns the requests it completed, as the health
/// report counts them.
fn checked_tail(engine: &HealthSink) -> (u64, u64) {
    let tail = engine.tail_report().expect("the engine keeps the tail");
    assert!(validate_tail(&tail).is_empty(), "{:?}", validate_tail(&tail));
    let cumulative = engine.report().get("cumulative").clone();
    let completed = |kind| cumulative.get(kind).as_u64().unwrap();
    (completed("puts"), completed("gets"))
}

/// Satellite 1: no sink, a [`NullSink`], and the full exporter pipeline
/// must produce byte-identical device images and identical tree counters
/// on the same seeded workload.
#[test]
fn exporters_have_no_observer_effect() {
    let run = |sink: SinkHandle| {
        let device = Arc::new(MemDevice::with_block_size(1 << 16, cfg().block_size));
        let mut tree = build(Arc::clone(&device), sink);
        drive(&mut tree, 12_000);
        (device.image_digest(), format!("{:?}", tree.stats()))
    };

    let bare = run(SinkHandle::none());
    let null = run(SinkHandle::of(NullSink));
    let recorder = Arc::new(VecSink::bounded(256));
    let health = Arc::new(HealthSink::with_defaults().with_tail().with_series());
    let full = run(full_pipeline(&recorder, &health));

    assert_eq!(bare.0, null.0, "NullSink changed the device image");
    assert_eq!(bare.0, full.0, "exporter pipeline changed the device image");
    assert_eq!(bare.1, null.1, "NullSink changed TreeStats");
    assert_eq!(bare.1, full.1, "exporter pipeline changed TreeStats");
    // The windowed engine rode along without observer effect, saw every
    // front-end request as exactly one root span, captured exemplars, and
    // its tail report validates.
    let (puts, lookups) = checked_tail(&health);
    assert_eq!(puts + lookups, 12_000, "every request must complete exactly one root span");
    let tail = health.tail_report().unwrap();
    let scopes = tail.get("shards").items().iter().chain([tail.get("unsharded")]);
    let captured: usize = scopes.map(|scope| scope.get("exemplars").items().len()).sum();
    assert!(captured > 0, "no tail exemplars captured");
    assert!(health.series().unwrap().len() > 1, "no amplification rows taken");
    // The flight recorder rode along without observer effect — and actually
    // recorded: the ring is full, the overflow is accounted exactly, and no
    // span is left open after the run.
    assert_eq!(recorder.len(), recorder.capacity(), "ring never filled");
    assert_eq!(recorder.dropped(), recorder.total() - recorder.capacity() as u64);
    assert!(recorder.open_spans().is_empty(), "spans leaked past the run");
    // Its windows rotated, and the health report validates.
    assert!(health.windows_completed() > 0, "health windows never rotated");
    let report = health.report().render();
    let doc = Json::parse(&report).unwrap();
    assert!(validate_health(&doc).is_empty(), "{report}");
}

/// The observer-effect contract with the background scheduler enabled.
/// Worker/writer interleaving makes device images timing-dependent, so
/// the invariant here is *logical*: attaching the full exporter pipeline
/// must not change what the index contains or how many requests it
/// acknowledged — and no span may leak past the drained run.
#[test]
fn exporters_have_no_observer_effect_with_scheduler() {
    use lsm_tree::Scheduler;
    let run = |sink: SinkHandle| {
        let device = Arc::new(MemDevice::with_block_size(1 << 16, cfg().block_size));
        let tree = ShardedLsmTree::with_devices(
            cfg(),
            TreeOptions::builder()
                .policy(PolicySpec::ChooseBest)
                .preserve_blocks(true)
                .scheduler(Scheduler::background())
                .sink(sink)
                .build(),
            vec![device as Arc<dyn BlockDevice>],
        )
        .unwrap();
        let mut x = 0x243F_6A88_85A3_08D3u64;
        for i in 0..12_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = (x >> 17) % 4_096;
            match i % 11 {
                10 => tree.delete(key).unwrap(),
                7 => {
                    tree.get(key).unwrap();
                }
                _ => tree.put(key, vec![(key % 251) as u8; 4]).unwrap(),
            }
        }
        tree.flush().unwrap();
        let stats = tree.stats();
        (tree.scan_collect(0, u64::MAX).unwrap(), stats.puts, stats.deletes, stats.lookups())
    };

    let bare = run(SinkHandle::none());
    let null = run(SinkHandle::of(NullSink));
    let recorder = Arc::new(VecSink::bounded(256));
    let health = Arc::new(HealthSink::with_defaults().with_tail());
    let full = run(full_pipeline(&recorder, &health));

    assert_eq!(bare, null, "NullSink changed the scheduled run");
    assert_eq!(bare, full, "exporter pipeline changed the scheduled run");
    assert!(recorder.total() > 0, "the pipeline saw no events");
    assert!(recorder.open_spans().is_empty(), "spans leaked past the drained run");
    assert!(health.windows_completed() > 0, "health windows never rotated");
    // Wait-state instrumentation on the scheduled write path (lock waits,
    // backpressure stalls) must not change the logical outcome either —
    // and the engine still sees one root span per request.
    let (puts, lookups) = checked_tail(&health);
    assert_eq!(puts + lookups, 12_000, "every scheduled request must complete one root span");
}

/// One handle, several span consumers, nothing in front of them: the
/// windowed engine sits between two recorders on the same handle, and
/// each sees every begin, end and event exactly once — same ids, same
/// stamps, same order. (A fan-out that hands spans to the first
/// span-aware sink only would leave the consumers behind it blind.)
#[test]
fn every_consumer_of_one_handle_sees_the_whole_stream() {
    let (first, last) = (Arc::new(VecSink::new()), Arc::new(VecSink::new()));
    let health = Arc::new(HealthSink::with_defaults().with_tail());
    let sink = SinkHandle::with_clock(Arc::new(TickClock::new()))
        .and(Arc::clone(&first) as _)
        .and(Arc::clone(&health) as _)
        .and(Arc::clone(&last) as _);
    let device = Arc::new(MemDevice::with_block_size(1 << 16, cfg().block_size));
    let mut tree = build(device, sink);
    drive(&mut tree, 6_000);

    let entries = first.entries();
    assert_eq!(entries, last.entries(), "first and last consumer disagree");
    assert!(
        entries.iter().enumerate().all(|(i, e)| e.at_us == i as u64),
        "one clock reading per entry, in order"
    );
    let mut open = std::collections::HashSet::new();
    let (mut put_roots, mut lookup_roots) = (0u64, 0u64);
    for e in &entries {
        match e.kind {
            TraceEventKind::Begin { id, .. } => assert!(open.insert(id), "{id} issued twice"),
            TraceEventKind::End { id, op, .. } => {
                assert!(open.remove(&id), "{id} ended without a begin");
                match (e.span, op.kind) {
                    (None, SpanKind::Put) => put_roots += 1,
                    (None, SpanKind::Lookup) => lookup_roots += 1,
                    _ => {}
                }
            }
            TraceEventKind::Emit(_) => {}
        }
    }
    assert!(open.is_empty(), "spans leaked past the run");
    assert_eq!(put_roots + lookup_roots, 6_000);

    // The engine, sitting between the recorders, saw the same spans.
    assert_eq!(checked_tail(&health), (put_roots, lookup_roots));
    let report = health.report().render();
    assert!(
        report.contains(&format!("\"cumulative\":{{\"puts\":{put_roots},\"gets\":{lookup_roots},")),
        "health engine counted other requests than the stream holds: {report}"
    );
}

/// Satellite: the flight recorder as the shared sink of a sharded tree
/// under concurrent writers — no deadlock, per-shard emission order is
/// preserved in the retained window, and the drop count on wrap is exact.
#[test]
fn flight_recorder_under_sharded_concurrent_writers() {
    let shards = 4usize;
    let recorder = Arc::new(VecSink::bounded(4_096));
    let vec_sink = Arc::new(VecSink::new());
    let sink = SinkHandle::with_clock(Arc::new(TickClock::new()))
        .and(Arc::clone(&recorder) as _)
        .and(Arc::clone(&vec_sink) as _);
    let tree = ShardedLsmTree::with_mem_devices(
        cfg(),
        TreeOptions::builder().policy(PolicySpec::ChooseBest).sink(sink).build(),
        shards,
        1 << 16,
    )
    .unwrap();

    // 4 writers over disjoint key ranges (each range hashes across every
    // shard). Completing at all is the no-deadlock half of the check.
    std::thread::scope(|s| {
        for w in 0..4u64 {
            let tree = &tree;
            s.spawn(move || {
                let base = 1_000_000 * (w + 1);
                for i in 0..4_000u64 {
                    tree.put(base + (i * 13 % 3_000), vec![(w % 251) as u8; 4]).unwrap();
                    if i % 4 == 0 {
                        tree.delete(base + (i * 7 % 3_000)).unwrap();
                    }
                }
            });
        }
    });

    // Exact drop accounting: the handle's full stream (mirrored by the
    // unbounded VecSink) dwarfs the ring, and every entry was either
    // retained or counted as dropped — nothing lost, nothing double-counted.
    let events = vec_sink.entries();
    let emitted = events.len() as u64;
    assert!(emitted > recorder.capacity() as u64, "workload too small to wrap the ring");
    assert_eq!(recorder.total(), emitted, "recorder missed concurrent entries");
    assert_eq!(recorder.len(), recorder.capacity(), "wrapped ring must stay full");
    assert_eq!(recorder.dropped(), emitted - recorder.capacity() as u64, "inexact drop count");

    // Map spans to shards from the mirror's Begin records; every shard was
    // active during the run.
    let mut op_of = std::collections::HashMap::new();
    let mut active = vec![false; shards];
    for ev in &events {
        if let TraceEventKind::Begin { id, op, .. } = &ev.kind {
            op_of.insert(*id, *op);
            if let Some(s) = op.shard {
                active[s] = true;
            }
        }
    }
    assert!(active.iter().all(|&a| a), "not every shard saw traced work");

    // Per-shard ordering: a shard emits serially under its own write lock,
    // so its retained subsequence must be in emission order (strictly
    // increasing tick stamps) with merge starts and finishes alternating
    // on matching levels. The ring may open mid-merge, so alternation is
    // checked from the first retained MergeStart onward.
    let entries = recorder.entries();
    let mut shards_retained = 0usize;
    for shard in 0..shards {
        let mine: Vec<&TraceEvent> = entries
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Emit(_)))
            .filter(|e| e.span.and_then(|id| op_of.get(&id)).and_then(|op| op.shard) == Some(shard))
            .collect();
        if mine.is_empty() {
            continue;
        }
        shards_retained += 1;
        assert!(
            mine.windows(2).all(|w| w[0].at_us < w[1].at_us),
            "shard {shard}: retained events out of emission order"
        );
        let mut open: Option<usize> = None;
        let mut seen_start = false;
        for entry in &mine {
            match entry.kind {
                TraceEventKind::Emit(Event::MergeStart { target_level, .. }) => {
                    assert!(open.is_none(), "shard {shard}: merge started inside a merge");
                    open = Some(target_level);
                    seen_start = true;
                }
                TraceEventKind::Emit(Event::MergeFinish { target_level, .. }) if seen_start => {
                    assert_eq!(
                        open,
                        Some(target_level),
                        "shard {shard}: merge finish does not match its start"
                    );
                    open = None;
                }
                _ => {}
            }
        }
    }
    assert!(shards_retained > 0, "the retained window attributes no events to any shard");
}

/// Satellites 2 (conservation) and the sharded half of the tentpole:
/// every span the sharded tree opens carries its shard tag, and per
/// shard, span-attributed device writes plus unattributed ones equal the
/// device's own write counter — nothing double-counted, nothing lost.
#[test]
fn sharded_device_writes_conserve_per_shard() {
    let shards = 3usize;
    let vec_sink = Arc::new(VecSink::new());
    let sink = SinkHandle::with_clock(Arc::new(TickClock::new())).and(Arc::clone(&vec_sink) as _);
    let devices: Vec<Arc<MemDevice>> = (0..shards)
        .map(|_| Arc::new(MemDevice::with_block_size(1 << 16, cfg().block_size)))
        .collect();
    let tree = ShardedLsmTree::with_devices(
        cfg(),
        TreeOptions::builder().policy(PolicySpec::ChooseBest).sink(sink).build(),
        devices.iter().map(|d| Arc::clone(d) as Arc<dyn BlockDevice>).collect(),
    )
    .unwrap();
    let mut x = 7u64;
    for _ in 0..10_000 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        tree.put(x >> 13, vec![(x % 251) as u8; 4]).unwrap();
    }
    tree.scan_collect(0, u64::MAX).unwrap();

    // Map every span id to its op, then attribute each DeviceWrite to the
    // shard of its innermost enclosing span.
    let events = vec_sink.entries();
    let mut op_of = std::collections::HashMap::new();
    let mut attributed = vec![0u64; shards];
    let mut unattributed = 0u64;
    let mut spans_seen = 0u64;
    for ev in &events {
        match &ev.kind {
            TraceEventKind::Begin { id, op, .. } => {
                spans_seen += 1;
                assert_eq!(
                    op.shard.map(|s| s < shards),
                    Some(true),
                    "sharded span lacks a valid shard tag: {op:?}"
                );
                op_of.insert(*id, *op);
            }
            TraceEventKind::Emit(Event::DeviceWrite { .. }) => match ev.span {
                Some(id) => {
                    let op = op_of.get(&id).expect("write attributed to unknown span");
                    attributed[op.shard.expect("checked at Begin")] += 1;
                }
                None => unattributed += 1,
            },
            _ => {}
        }
    }
    assert!(spans_seen > 0, "no spans traced");
    assert_eq!(unattributed, 0, "all sharded device writes happen inside spans");
    for (i, device) in devices.iter().enumerate() {
        let io = device.io_snapshot();
        assert!(io.writes > 0, "shard {i} never wrote");
        assert_eq!(
            attributed[i], io.writes,
            "shard {i}: span-attributed writes disagree with DeviceStats"
        );
    }
}

/// Satellite of the tentpole's acceptance: each `MergeFinish.writes` is
/// exactly the number of `DeviceWrite` events attributed to its merge
/// span — in-merge pairwise fixes included, seam fixes and target-side
/// compactions excluded (they run in their own spans).
#[test]
fn merge_finish_writes_match_span_attribution() {
    let vec_sink = Arc::new(VecSink::new());
    let sink = SinkHandle::with_clock(Arc::new(TickClock::new())).and(Arc::clone(&vec_sink) as _);
    let device = Arc::new(MemDevice::with_block_size(1 << 16, cfg().block_size));
    let mut tree = build(device, sink);
    drive(&mut tree, 15_000);

    let events = vec_sink.entries();
    let mut op_of = std::collections::HashMap::new();
    let mut writes_of = std::collections::HashMap::new();
    for ev in &events {
        match &ev.kind {
            TraceEventKind::Begin { id, op, .. } => {
                op_of.insert(*id, *op);
            }
            TraceEventKind::Emit(Event::DeviceWrite { .. }) => {
                if let Some(id) = ev.span {
                    *writes_of.entry(id).or_insert(0u64) += 1;
                }
            }
            _ => {}
        }
    }
    let mut merges = 0u64;
    for ev in &events {
        if let TraceEventKind::Emit(Event::MergeFinish { writes, target_level, .. }) = ev.kind {
            let id = ev.span.expect("MergeFinish outside any span");
            let op = op_of[&id];
            assert_eq!(op.kind, SpanKind::Merge, "MergeFinish attributed to {op:?}");
            assert_eq!(op.level, Some(target_level), "MergeFinish in the wrong merge span");
            assert_eq!(
                writes_of.get(&id).copied().unwrap_or(0),
                writes,
                "merge span L{target_level}: attributed writes != MergeFinish.writes"
            );
            merges += 1;
        }
    }
    assert!(merges >= 10, "expected a deep cascade, saw {merges} merges");
}

/// Tick-clock traces are deterministic: two identical runs produce
/// byte-identical Chrome trace JSON.
#[test]
fn tick_clock_chrome_traces_are_byte_identical() {
    #[derive(Clone, Default)]
    struct Shared(Arc<parking_lot::Mutex<Vec<u8>>>);
    impl std::io::Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let run = || {
        let out = Shared::default();
        let chrome = Arc::new(ChromeTraceSink::new(out.clone()));
        let sink = SinkHandle::with_clock(Arc::new(TickClock::new())).and(Arc::clone(&chrome) as _);
        let device = Arc::new(MemDevice::with_block_size(1 << 16, cfg().block_size));
        let mut tree = build(device, sink);
        drive(&mut tree, 8_000);
        chrome.finish();
        let bytes = out.0.lock().clone();
        String::from_utf8(bytes).unwrap()
    };
    let a = run();
    let b = run();
    assert!(a.contains("\"ph\":\"X\""), "trace has no complete spans");
    assert_eq!(a, b, "tick-clock traces must be byte-identical across runs");
}
