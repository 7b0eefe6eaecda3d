//! Deterministic end-to-end exercise of the tail-anatomy engine
//! (ISSUE 10): a seeded [`SimExecutor`]-backed sharded tree is driven
//! into backpressure through a tick-clock [`SinkHandle`], and the attached
//! [`ExemplarSink`] must (a) capture the stalled puts as exemplars whose
//! wait-state phases sum *exactly* to the measured put duration, (b) name
//! `backpressure_wait` as the dominant phase of the critical-path blame
//! table — globally and on the stalled shards — and (c) render a
//! byte-identical `lsm-tail/v1` report across same-seed replays, since
//! every timestamp is a tick count and every reservoir is ordered.

use std::sync::Arc;

use lsm_tree::observe::{validate_tail, ExemplarConfig, ExemplarSink, Json, SinkHandle, TickClock};
use lsm_tree::{LsmConfig, PolicySpec, SchedulerBackend, ShardedLsmTree, SimExecutor, TreeOptions};

fn tiny_cfg() -> LsmConfig {
    LsmConfig {
        block_size: 256,
        payload_size: 4,
        k0_blocks: 4,
        gamma: 4,
        cache_blocks: 16,
        merge_rate: 0.25,
        ..LsmConfig::default()
    }
}

/// One seeded stall run: 600 puts against a two-shard tree over a
/// `max_imm = 1` simulated executor. Every sealed memtable overflows the
/// backlog immediately, so writers park inside `backpressure_wait` spans
/// while the executor runs the flush/merge work inline — the dominant
/// phase of every slow put, by construction.
fn run_scenario(seed: u64) -> Arc<ExemplarSink> {
    let exemplars = Arc::new(ExemplarSink::new(ExemplarConfig {
        per_shard: 4,
        windows: 4,
        window_puts: 64,
        percentile: 0.95,
        min_samples: 16,
    }));
    let handle =
        SinkHandle::with_clock(Arc::new(TickClock::new())).and(Arc::clone(&exemplars) as _);
    let sim = Arc::new(SimExecutor::new(1, seed, handle.clone()));
    let opts = TreeOptions::builder().policy(PolicySpec::ChooseBest).sink(handle.clone()).build();
    let devices =
        (0..2).map(|_| Arc::new(sim_ssd::MemDevice::with_block_size(1 << 14, 256)) as _).collect();
    let tree = ShardedLsmTree::with_backend(
        tiny_cfg(),
        opts,
        devices,
        None,
        Some(Arc::clone(&sim) as Arc<dyn SchedulerBackend>),
    )
    .expect("create sharded tree");
    for k in 0..600u64 {
        tree.put(k, vec![(k % 251) as u8; 4]).expect("put");
    }
    drop(tree);
    sim.drain().expect("drain");
    exemplars
}

fn field<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    match doc {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

fn as_u64(doc: Option<&Json>) -> u64 {
    match doc {
        Some(Json::U64(n)) => *n,
        Some(Json::I64(n)) => *n as u64,
        Some(Json::F64(x)) => *x as u64,
        _ => 0,
    }
}

fn as_str(doc: Option<&Json>) -> &str {
    match doc {
        Some(Json::Str(s)) => s.as_str(),
        _ => "",
    }
}

#[test]
fn induced_stall_blames_backpressure_on_the_stalled_shards() {
    let exemplars = run_scenario(42);
    let report = exemplars.report();

    // The report passes its own validator (which already enforces the 1%
    // phase-sum bound per exemplar).
    assert!(validate_tail(&report).is_empty(), "{:?}", validate_tail(&report));

    // Every front-end put completed exactly one root span.
    assert_eq!(as_u64(field(&report, "completed").and_then(|c| field(c, "put"))), 600);
    assert_eq!(exemplars.completed_puts(), 600);

    // The blame table names the induced stall, globally...
    assert_eq!(as_str(field(&report, "dominant_phase")), "backpressure_wait");
    assert_eq!(exemplars.dominant_phase(), Some("backpressure_wait"));

    // ...and on every shard that captured exemplars: both shards see the
    // round-robin key stream, so both stall.
    let Some(Json::Arr(shards)) = field(&report, "shards") else {
        panic!("report has no shards array")
    };
    assert_eq!(shards.len(), 2, "both shards must capture exemplars");
    for sec in shards {
        let idx = as_u64(field(sec, "shard"));
        assert_eq!(
            as_str(field(sec, "dominant_phase")),
            "backpressure_wait",
            "shard {idx} blames the wrong phase"
        );
        // Under the tick clock the partition is exact, not just within the
        // validator's 1% slack: phases of every captured exemplar sum to
        // its measured duration to the microsecond.
        let Some(Json::Arr(exemplars)) = field(sec, "exemplars") else {
            panic!("shard {idx} has no exemplars array")
        };
        assert!(!exemplars.is_empty(), "shard {idx} captured nothing");
        for x in exemplars {
            let duration = as_u64(field(x, "duration_us"));
            let Some(Json::Arr(phases)) = field(x, "phases") else {
                panic!("exemplar has no phases array")
            };
            let sum: u64 = phases.iter().map(|p| as_u64(field(p, "us"))).sum();
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
