//! Deterministic end-to-end exercise of the windowed health engine
//! (ISSUE 9): a seeded [`SimExecutor`]-backed sharded tree is driven into
//! backpressure, so that the puts which stall breach the write-stall
//! bound, and the [`HealthSink`] consuming the tree's ordinary span stream
//! — nothing is fed by hand — must trip both detectors within one window
//! of the induced stall, then clear them once the stall ends, proving the
//! hysteresis path. The whole run is
//! single-threaded and seeded, so the rendered `lsm-health/v1` report is
//! asserted byte-identical across replays.

mod common;

use std::sync::Arc;

use lsm_tree::observe::{
    validate_health, Event, HealthConfig, HealthDetector, HealthSink, HealthState, Json,
    SinkHandle, SpanOp, TickClock, TransitionRecord,
};

/// Tight windows so the scenario completes in a handful of device ops:
/// 32 device ops per window, 4-window rolling ring, alert after one
/// breaching window, clear after two healthy ones. Latencies are ticks: a
/// put that finds room takes under ten, one that stalls behind a flush
/// and its merges about ninety, and the write-stall bound and the SLO
/// objective sit between the two. The drift and hit-rate
/// detectors are parked out of range — this scenario scripts a stall, and
/// an unrelated detector firing would make the transition log
/// seed-dependent in ways the test does not control.
fn scenario_config() -> HealthConfig {
    HealthConfig {
        window_ops: 32,
        windows: 4,
        put_p99_limit: 32,
        fsync_p99_limit: u64::MAX,
        backpressure_limit: 4,
        write_amp_drift: 1e12,
        hit_rate_floor: 0.0,
        min_window_lookups: u64::MAX,
        min_window_samples: 4,
        trip_after: 1,
        clear_after: 2,
        slo_target: 0.9,
        slo_objective: 32,
        slo_burn_limit: 1.0,
    }
}

struct ScenarioResult {
    report: String,
    /// Report rendered right after the stall phase, while the breaching
    /// epochs are still inside the rolling ring.
    mid_report: String,
    transitions: Vec<TransitionRecord>,
    windows_before_stall: u64,
    windows_after_stall: u64,
    final_write_stall: HealthState,
    final_backpressure: HealthState,
}

/// One seeded run: a stall phase (puts against a `max_imm = 1` simulated
/// executor — the `lsm_doctor --tail-stall` scenario — whose stalled puts
/// run several times over the write-stall bound), then a quiet phase that
/// keeps the window clock ticking with syncs while healthy one-tick puts
/// drain the ring.
fn run_scenario(seed: u64) -> ScenarioResult {
    let health = Arc::new(HealthSink::new(scenario_config()));
    let handle = SinkHandle::with_clock(Arc::new(TickClock::new())).and(Arc::clone(&health) as _);

    let windows_before_stall = health.windows_completed();
    // Stall phase: enough puts to seal memtables past the bound over and
    // over; every stalled seal emits Event::Backpressure from the
    // executor's wait-for-room loop, and the flush/merge work it runs
    // inline emits the device ops that advance the window clock.
    let (tree, sim) = common::stalled_tree(seed, &handle);
    let windows_after_stall = health.windows_completed();
    let mid_report = health.report().render();

    // Quiet phase: no more stalls. Healthy puts keep the latency ring
    // populated below the bound while syncs tick the window clock until
    // the breaching epochs age out of the rolling ring and the
    // clear-after hysteresis runs its course.
    while health.windows_completed() < windows_after_stall + 12 {
        drop(handle.span(SpanOp::put()));
        handle.emit(Event::DeviceSync);
    }
    drop(tree);
    sim.drain().expect("drain");

    ScenarioResult {
        report: health.report().render(),
        mid_report,
        transitions: health.transitions(),
        windows_before_stall,
        windows_after_stall,
        final_write_stall: health.state(HealthDetector::WriteStall),
        final_backpressure: health.state(HealthDetector::BackpressureStorm),
    }
}

/// The first alert and clear for one detector, if any.
fn trip_and_clear(
    transitions: &[TransitionRecord],
    detector: HealthDetector,
) -> (Option<TransitionRecord>, Option<TransitionRecord>) {
    let mut trip = None;
    let mut clear = None;
    for t in transitions.iter().filter(|t| t.detector == detector) {
        match t.to {
            HealthState::Alerting if trip.is_none() => trip = Some(*t),
            HealthState::Healthy if trip.is_some() && clear.is_none() => clear = Some(*t),
            _ => {}
        }
    }
    (trip, clear)
}

#[test]
fn induced_stall_trips_and_clears_both_detectors() {
    let r = run_scenario(42);
    assert!(
        r.windows_after_stall > r.windows_before_stall,
        "the stall phase must rotate at least one window"
    );

    for detector in [HealthDetector::BackpressureStorm, HealthDetector::WriteStall] {
        let (trip, clear) = trip_and_clear(&r.transitions, detector);
        let trip = trip.unwrap_or_else(|| panic!("{} never tripped", detector.name()));
        assert_eq!(trip.from, HealthState::Healthy);
        // "Within one window of the induced stall": the alert fires at a
        // boundary evaluated while the stall phase is still running (or
        // at the very next boundary after it ends).
        assert!(
            trip.window >= r.windows_before_stall && trip.window <= r.windows_after_stall + 1,
            "{} tripped at window {}, stall spanned windows {}..{}",
            detector.name(),
            trip.window,
            r.windows_before_stall,
            r.windows_after_stall
        );
        let clear = clear.unwrap_or_else(|| panic!("{} never cleared", detector.name()));
        assert!(clear.window > trip.window);
        assert!(
            clear.window <= r.windows_after_stall + 12,
            "{} cleared only at window {}",
            detector.name(),
            clear.window
        );
    }
    assert_eq!(r.final_write_stall, HealthState::Healthy);
    assert_eq!(r.final_backpressure, HealthState::Healthy);

    // The bound sits between a put that found room and one that stalled:
    // it is the stalled puts' own spans that tripped the detector.
    let mid = Json::parse(&r.mid_report).expect("parses");
    let put = mid.get("cumulative").get("put_latency");
    assert_eq!(mid.get("cumulative").get("puts").as_u64(), Some(600), "every put was seen");
    let limit = scenario_config().put_p99_limit as f64;
    assert!(put.get("p50").as_f64().unwrap() < limit, "{put:?}");
    assert!(put.get("max").as_f64().unwrap() > 2.0 * limit, "{put:?}");
}

#[test]
fn report_is_byte_identical_across_replays_and_validates() {
    let a = run_scenario(7);
    let b = run_scenario(7);
    assert_eq!(a.report, b.report, "same seed must render the same health report bytes");

    let doc = Json::parse(&a.report).expect("health report parses");
    let problems = validate_health(&doc);
    assert!(problems.is_empty(), "health report invalid: {problems:?}");
    assert_eq!(doc.render(), a.report, "render(parse(render)) must be the identity");

    // A different seed reshuffles the executor's maintenance
    // interleaving; the engine still produces a valid report.
    let c = run_scenario(8);
    let doc_c = Json::parse(&c.report).expect("second seed parses");
    assert!(validate_health(&doc_c).is_empty());
}

#[test]
fn report_attributes_backpressure_to_the_stalled_shards() {
    let r = run_scenario(42);
    // The mid-run snapshot still has the stall inside its rolling ring.
    let doc = Json::parse(&r.mid_report).expect("parses");
    let shards = doc.get("shards").items();
    assert_eq!(shards.len(), 2, "both shards must appear");
    let total: u64 = shards
        .iter()
        .map(|shard| shard.get("backpressure").as_u64().expect("shard backpressure is a count"))
        .sum();
    assert!(total > 0, "stalls must be attributed to shards, not only the global series");
}
