//! Deterministic end-to-end exercise of the tail-anatomy engine
//! (ISSUE 10): a seeded [`SimExecutor`]-backed sharded tree is driven
//! into backpressure through a tick-clock [`SinkHandle`], and the attached
//! [`ExemplarSink`] must (a) capture the stalled puts as exemplars whose
//! wait-state phases sum *exactly* to the measured put duration, (b) name
//! `backpressure_wait` as the dominant phase of the critical-path blame
//! table — globally and on the stalled shards — and (c) render a
//! byte-identical `lsm-tail/v1` report across same-seed replays, since
//! every timestamp is a tick count and every reservoir is ordered.

mod common;

use std::collections::HashMap;
use std::sync::Arc;

use lsm_tree::observe::trace::TraceEventKind;
use lsm_tree::observe::{
    validate_tail, ExemplarConfig, ExemplarSink, HealthConfig, HealthSink, SinkHandle, TickClock,
    VecSink,
};

/// A tick-clock handle feeding a fresh tail engine.
fn tail_engine() -> (Arc<ExemplarSink>, SinkHandle) {
    let exemplars = Arc::new(ExemplarSink::new(ExemplarConfig {
        per_shard: 4,
        windows: 4,
        window_puts: 64,
        percentile: 0.95,
        min_samples: 16,
    }));
    let handle =
        SinkHandle::with_clock(Arc::new(TickClock::new())).and(Arc::clone(&exemplars) as _);
    (exemplars, handle)
}

/// One seeded stall run ([`common::stalled_tree`]) watched by the tail
/// engine alone.
fn run_scenario(seed: u64) -> Arc<ExemplarSink> {
    let (exemplars, handle) = tail_engine();
    let (tree, sim) = common::stalled_tree(seed, &handle);
    drop(tree);
    sim.drain().expect("drain");
    exemplars
}

#[test]
fn induced_stall_blames_backpressure_on_the_stalled_shards() {
    let exemplars = run_scenario(42);
    let report = exemplars.report();

    // The report passes its own validator (which already enforces the 1%
    // phase-sum bound per exemplar).
    assert!(validate_tail(&report).is_empty(), "{:?}", validate_tail(&report));

    // Every front-end put completed exactly one root span.
    assert_eq!(report.get("completed").get("put").as_u64(), Some(600));
    assert_eq!(exemplars.completed_puts(), 600);

    // The blame table names the induced stall, globally...
    assert_eq!(report.get("dominant_phase").as_str(), Some("backpressure_wait"));
    assert_eq!(exemplars.dominant_phase(), Some("backpressure_wait"));

    // ...and on every shard that captured exemplars: both shards see the
    // round-robin key stream, so both stall.
    let shards = report.get("shards").items();
    assert_eq!(shards.len(), 2, "both shards must capture exemplars");
    for (idx, sec) in shards.iter().enumerate() {
        assert_eq!(sec.get("shard").as_u64(), Some(idx as u64));
        assert_eq!(
            sec.get("dominant_phase").as_str(),
            Some("backpressure_wait"),
            "shard {idx} blames the wrong phase"
        );
        // Under the tick clock the partition is exact, not just within the
        // validator's 1% slack: phases of every captured exemplar sum to
        // its measured duration to the microsecond.
        let exemplars = sec.get("exemplars").items();
        assert!(!exemplars.is_empty(), "shard {idx} captured nothing");
        for x in exemplars {
            let duration = x.get("duration_us").as_u64().expect("exemplar has a duration");
            let phases = x.get("phases").items();
            assert!(!phases.is_empty(), "exemplar has no phases");
            let sum: u64 = phases.iter().map(|p| p.get("us").as_u64().expect("phase us")).sum();
            assert_eq!(sum, duration, "shard {idx}: phases must sum exactly under TickClock");
        }
    }
}

#[test]
fn reports_are_byte_identical_across_same_seed_replays() {
    let a = run_scenario(7).report().render();
    let b = run_scenario(7).report().render();
    assert_eq!(a, b, "same seed must replay to the same tail report, byte for byte");

    // A different seed still yields a valid report — the schema and the
    // phase-partition invariant hold for any interleaving, only the
    // numbers may move.
    let other = run_scenario(8).report();
    assert!(validate_tail(&other).is_empty(), "{:?}", validate_tail(&other));
}

/// The stamped stream is the one source of request timing and shard
/// attribution: both engines on one handle count the puts the front end
/// was asked for — in total, per shard, and in the SLO — and every entry
/// carries the shard and the begin time a consumer used to keep a table
/// of open spans for.
#[test]
fn one_stream_feeds_both_engines_and_carries_what_their_tables_held() {
    let (exemplars, handle) = tail_engine();
    // No window ever closes, so the rolling per-shard counts are totals.
    let health =
        Arc::new(HealthSink::new(HealthConfig { window_ops: u64::MAX, ..HealthConfig::default() }));
    let stream = Arc::new(VecSink::new());
    let handle = handle.and(Arc::clone(&health) as _).and(Arc::clone(&stream) as _);
    let (tree, sim) = common::stalled_tree(42, &handle);
    let mut asked = [0u64; 2];
    (0..600u64).for_each(|k| asked[tree.shard_of(k)] += 1);
    drop(tree);
    sim.drain().expect("drain");

    let (health, tail) = (health.report(), exemplars.report());
    assert_eq!(tail.get("completed").get("put").as_u64(), Some(600));
    assert_eq!(health.get("cumulative").get("puts").as_u64(), Some(600));
    let slo = health.get("slo");
    assert_eq!(slo.get("good").as_u64().unwrap() + slo.get("bad").as_u64().unwrap(), 600);
    let shards = health.get("shards").items();
    assert_eq!(shards.len(), 2);
    for (shard, asked) in shards.iter().zip(asked) {
        assert_eq!(shard.get("put_latency").get("count").as_u64(), Some(asked), "{shard:?}");
    }

    // What each sink used to look up in its own table of `Begin`s.
    let mut begun = HashMap::new();
    for entry in stream.entries() {
        match entry.kind {
            TraceEventKind::Begin { id, op, .. } => {
                assert_eq!(entry.shard, op.shard);
                begun.insert(id, (op, entry.at_us));
            }
            TraceEventKind::End { id, op, began_us } => {
                assert_eq!((op, began_us), begun[&id], "an End repeats its Begin");
                assert_eq!(entry.shard, op.shard);
            }
            TraceEventKind::Emit(event) => {
                let looked_up = entry.span.and_then(|span| begun[&span].0.shard);
                assert_eq!(entry.shard, looked_up, "{event:?} at {}", entry.at_us);
            }
        }
    }
    assert!(begun.len() > 600, "the run opened more spans than puts");
}
