//! The windowed health engine: rolling-window detectors, SLO tracking,
//! and the versioned `lsm-health/v1` report.
//!
//! [`HealthSink`] consumes the stamped event/span stream the stack already
//! emits — it adds **no new instrumentation call sites on hot paths**.
//! Attach it to a [`SinkHandle`] like any other [`EventSink`]: plain events
//! arrive attributed to their enclosing span, so the sink buckets
//! device/cache activity per shard (the sharded front-end's handles stamp
//! `SpanOp::shard`) and turns WAL-append / lookup span durations into
//! fsync / read latency windows.
//!
//! Workload drivers report end-to-end request latency through
//! [`HealthSink::record_put`] / [`HealthSink::record_get`] (the stack has
//! no put span — a put is memtable-only on the happy path).
//!
//! Windows rotate every [`HealthConfig::window_ops`] *device operations*
//! (reads + writes + trims + syncs), not wall time, so rotation is a pure
//! function of the workload and every windowed statistic is deterministic
//! under [`TickClock`](crate::TickClock) — same seed, byte-identical
//! report. At each boundary the sink evaluates five detectors with
//! hysteresis ([`HealthConfig::trip_after`] breaching windows to alert,
//! [`HealthConfig::clear_after`] healthy windows to clear), records every
//! state change as a [`TransitionRecord`], re-emits it as
//! [`Event::HealthTransition`] into an optional downstream sink, and feeds
//! the put-latency [`SloTracker`] (multi-window error-budget burn).

use std::collections::HashMap;
use std::sync::Mutex;

use crate::json::Json;
use crate::metrics::Metrics;
use crate::trace::{SpanKind, SpanOp, TraceEvent, TraceEventKind};
use crate::windowed::{RateWindow, WindowedHistogram};
use crate::{Event, EventSink, SinkHandle};

/// One of the built-in health detectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthDetector {
    /// Rolling put p99 breached [`HealthConfig::put_p99_limit`].
    WriteStall,
    /// More than [`HealthConfig::backpressure_limit`] admission-control
    /// stalls landed in one window.
    BackpressureStorm,
    /// Rolling write amplification drifted more than
    /// [`HealthConfig::write_amp_drift`]× above the long-run baseline.
    WriteAmpDrift,
    /// Rolling cache hit rate fell below [`HealthConfig::hit_rate_floor`].
    HitRateCollapse,
    /// Rolling WAL-append (fsync) p99 breached
    /// [`HealthConfig::fsync_p99_limit`].
    FsyncSpike,
}

impl HealthDetector {
    /// Short machine-readable name (used in JSON and metric labels).
    pub fn name(&self) -> &'static str {
        match self {
            HealthDetector::WriteStall => "write_stall",
            HealthDetector::BackpressureStorm => "backpressure_storm",
            HealthDetector::WriteAmpDrift => "write_amp_drift",
            HealthDetector::HitRateCollapse => "hit_rate_collapse",
            HealthDetector::FsyncSpike => "fsync_spike",
        }
    }

    /// Every detector, in report order.
    pub fn all() -> [HealthDetector; 5] {
        [
            HealthDetector::WriteStall,
            HealthDetector::BackpressureStorm,
            HealthDetector::WriteAmpDrift,
            HealthDetector::HitRateCollapse,
            HealthDetector::FsyncSpike,
        ]
    }
}

/// State of one detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// The detector's condition holds.
    Healthy,
    /// The detector tripped and has not yet seen
    /// [`HealthConfig::clear_after`] consecutive healthy windows.
    Alerting,
}

impl HealthState {
    /// Short machine-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Alerting => "alerting",
        }
    }

    /// Whether this state should page somebody.
    pub fn is_alerting(&self) -> bool {
        matches!(self, HealthState::Alerting)
    }
}

/// One detector state change, recorded at a window boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionRecord {
    /// Zero-based index of the window at whose close the change fired.
    pub window: u64,
    /// Which detector changed.
    pub detector: HealthDetector,
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
}

impl TransitionRecord {
    fn to_json(self) -> Json {
        Json::obj([
            ("window", Json::from(self.window)),
            ("detector", Json::from(self.detector.name())),
            ("from", Json::from(self.from.name())),
            ("to", Json::from(self.to.name())),
        ])
    }
}

/// Tuning for the health engine. Latency limits are in the units the
/// caller records (nanoseconds for real runs, ticks under
/// [`TickClock`](crate::TickClock)).
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Device operations (reads + writes + trims + syncs) per window.
    pub window_ops: u64,
    /// Number of window epochs kept in each rolling ring.
    pub windows: usize,
    /// Write-stall bound on the rolling put p99.
    pub put_p99_limit: u64,
    /// Fsync-spike bound on the rolling WAL-append span p99.
    pub fsync_p99_limit: u64,
    /// Backpressure stalls tolerated per window before the storm detector
    /// counts the window as breaching.
    pub backpressure_limit: u64,
    /// Rolling write amp must exceed baseline × this to count as drift.
    pub write_amp_drift: f64,
    /// Rolling cache hit rate below this counts as a collapse.
    pub hit_rate_floor: f64,
    /// Minimum rolling lookups before the hit rate is judged at all.
    pub min_window_lookups: u64,
    /// Minimum rolling latency samples before a latency detector is
    /// judged at all.
    pub min_window_samples: u64,
    /// Consecutive breaching windows before a detector alerts.
    pub trip_after: u32,
    /// Consecutive healthy windows before an alert clears.
    pub clear_after: u32,
    /// SLO: fraction of puts that must meet [`HealthConfig::slo_objective`].
    pub slo_target: f64,
    /// SLO: per-put latency objective.
    pub slo_objective: u64,
    /// SLO: burn rate (bad fraction ÷ error budget) above which both the
    /// short and long windows must sit for the SLO to alert.
    pub slo_burn_limit: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            window_ops: 2000,
            windows: 8,
            put_p99_limit: 50_000_000,
            fsync_p99_limit: 20_000_000,
            backpressure_limit: 8,
            write_amp_drift: 2.0,
            hit_rate_floor: 0.10,
            min_window_lookups: 64,
            min_window_samples: 16,
            trip_after: 1,
            clear_after: 2,
            slo_target: 0.999,
            slo_objective: 10_000_000,
            slo_burn_limit: 2.0,
        }
    }
}

/// Error-budget SLO tracking with a classic multi-window burn alert: the
/// short window (the most recent epoch) catches fast burn, the long
/// window (the whole ring) stops one bad epoch from paging forever.
#[derive(Debug, Clone)]
pub struct SloTracker {
    target: f64,
    objective: u64,
    burn_limit: f64,
    good: RateWindow,
    bad: RateWindow,
    alerting: bool,
}

impl SloTracker {
    /// A tracker over `windows` epochs.
    pub fn new(target: f64, objective: u64, burn_limit: f64, windows: usize) -> Self {
        SloTracker {
            target: target.clamp(0.0, 1.0),
            objective,
            burn_limit,
            good: RateWindow::new(windows),
            bad: RateWindow::new(windows),
            alerting: false,
        }
    }

    /// Record one request latency against the objective.
    pub fn record(&mut self, latency: u64) {
        if latency <= self.objective {
            self.good.incr();
        } else {
            self.bad.incr();
        }
    }

    fn burn(bad: u64, total: u64, budget: f64) -> f64 {
        if total == 0 || budget <= 0.0 {
            return 0.0;
        }
        (bad as f64 / total as f64) / budget
    }

    /// Burn rate over the current (short) epoch.
    pub fn short_burn(&self) -> f64 {
        let bad = self.bad.current();
        Self::burn(bad, bad + self.good.current(), 1.0 - self.target)
    }

    /// Burn rate over the whole ring (long window).
    pub fn long_burn(&self) -> f64 {
        let bad = self.bad.rolling();
        Self::burn(bad, bad + self.good.rolling(), 1.0 - self.target)
    }

    /// Whether the SLO is currently burning too fast in *both* windows.
    pub fn alerting(&self) -> bool {
        self.alerting
    }

    /// Close the current epoch: re-evaluate the multi-window condition,
    /// then rotate. Returns the alert state after evaluation.
    pub fn rotate(&mut self) -> bool {
        self.alerting = self.short_burn() > self.burn_limit && self.long_burn() > self.burn_limit;
        self.good.rotate();
        self.bad.rotate();
        self.alerting
    }

    /// All-time good / bad totals.
    pub fn totals(&self) -> (u64, u64) {
        (self.good.total(), self.bad.total())
    }

    /// JSON summary (part of the health report).
    pub fn to_json(&self) -> Json {
        let (good, bad) = self.totals();
        Json::obj([
            ("target", Json::from(self.target)),
            ("objective", Json::from(self.objective)),
            ("good", Json::from(good)),
            ("bad", Json::from(bad)),
            ("short_burn", Json::from(self.short_burn())),
            ("long_burn", Json::from(self.long_burn())),
            ("alerting", Json::from(self.alerting)),
        ])
    }
}

/// Rolling series kept per scope (one global set plus one per shard).
#[derive(Debug)]
struct SeriesSet {
    put_latency: WindowedHistogram,
    device_writes: RateWindow,
    cache_hits: RateWindow,
    cache_misses: RateWindow,
    wal_appends: RateWindow,
    backpressure: RateWindow,
}

impl SeriesSet {
    fn new(windows: usize) -> Self {
        SeriesSet {
            put_latency: WindowedHistogram::new(windows),
            device_writes: RateWindow::new(windows),
            cache_hits: RateWindow::new(windows),
            cache_misses: RateWindow::new(windows),
            wal_appends: RateWindow::new(windows),
            backpressure: RateWindow::new(windows),
        }
    }

    fn rotate(&mut self) {
        self.put_latency.rotate();
        self.device_writes.rotate();
        self.cache_hits.rotate();
        self.cache_misses.rotate();
        self.wal_appends.rotate();
        self.backpressure.rotate();
    }

    /// Rolling write amplification: device blocks written per WAL append.
    fn rolling_write_amp(&self) -> f64 {
        ratio(self.device_writes.rolling(), self.wal_appends.rolling())
    }

    /// All-time write amplification (the drift baseline).
    fn baseline_write_amp(&self) -> f64 {
        ratio(self.device_writes.total(), self.wal_appends.total())
    }

    /// Rolling cache hit rate, or 1.0 with no lookups (vacuously healthy).
    fn rolling_hit_rate(&self) -> f64 {
        let hits = self.cache_hits.rolling();
        let total = hits + self.cache_misses.rolling();
        if total == 0 {
            1.0
        } else {
            hits as f64 / total as f64
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("put_latency", self.put_latency.to_json()),
            ("device_writes", Json::from(self.device_writes.rolling())),
            ("wal_appends", Json::from(self.wal_appends.rolling())),
            ("write_amp", Json::from(self.rolling_write_amp())),
            ("cache_hit_rate", Json::from(self.rolling_hit_rate())),
            ("backpressure", Json::from(self.backpressure.rolling())),
        ])
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[derive(Debug)]
struct DetectorSlot {
    detector: HealthDetector,
    state: HealthState,
    breaching_streak: u32,
    healthy_streak: u32,
    trips: u64,
}

struct Inner {
    device_ops: u64,
    windows_completed: u64,
    puts: u64,
    gets: u64,
    global: SeriesSet,
    get_latency: WindowedHistogram,
    fsync_latency: WindowedHistogram,
    ops: RateWindow,
    shards: Vec<SeriesSet>,
    detectors: Vec<DetectorSlot>,
    slo: SloTracker,
    transitions: Vec<TransitionRecord>,
    /// Open spans: raw id → (op, begin timestamp).
    open: HashMap<u64, (SpanOp, u64)>,
}

/// The health engine. See the [module docs](self) for how to attach it.
pub struct HealthSink {
    config: HealthConfig,
    inner: Mutex<Inner>,
    transitions_to: SinkHandle,
}

impl std::fmt::Debug for HealthSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthSink").field("config", &self.config).finish_non_exhaustive()
    }
}

impl HealthSink {
    /// A health sink with the given tuning, emitting transitions nowhere.
    pub fn new(config: HealthConfig) -> Self {
        let windows = config.windows.max(1);
        let detectors = HealthDetector::all()
            .into_iter()
            .map(|detector| DetectorSlot {
                detector,
                state: HealthState::Healthy,
                breaching_streak: 0,
                healthy_streak: 0,
                trips: 0,
            })
            .collect();
        let slo = SloTracker::new(
            config.slo_target,
            config.slo_objective,
            config.slo_burn_limit,
            windows,
        );
        HealthSink {
            inner: Mutex::new(Inner {
                device_ops: 0,
                windows_completed: 0,
                puts: 0,
                gets: 0,
                global: SeriesSet::new(windows),
                get_latency: WindowedHistogram::new(windows),
                fsync_latency: WindowedHistogram::new(windows),
                ops: RateWindow::new(windows),
                shards: Vec::new(),
                detectors,
                slo,
                transitions: Vec::new(),
                open: HashMap::new(),
            }),
            config,
            transitions_to: SinkHandle::none(),
        }
    }

    /// Defaults.
    pub fn with_defaults() -> Self {
        Self::new(HealthConfig::default())
    }

    /// Route [`Event::HealthTransition`]s into `sink` (builder style).
    /// The transition stream is separate from the stream this sink
    /// consumes, so wiring it back into the same handle cannot recurse:
    /// incoming `HealthTransition`s are ignored.
    pub fn emit_transitions_to(mut self, sink: SinkHandle) -> Self {
        self.transitions_to = sink;
        self
    }

    /// Record one end-to-end put latency (units = the caller's clock),
    /// optionally attributed to a shard. Also feeds the SLO tracker.
    pub fn record_put(&self, shard: Option<usize>, latency: u64) {
        let mut inner = self.lock();
        inner.puts += 1;
        inner.ops.incr();
        inner.global.put_latency.record(latency);
        inner.slo.record(latency);
        if let Some(shard) = shard {
            series(&mut inner, shard, self.config.windows).put_latency.record(latency);
        }
    }

    /// Record one end-to-end get latency.
    pub fn record_get(&self, _shard: Option<usize>, latency: u64) {
        let mut inner = self.lock();
        inner.gets += 1;
        inner.ops.incr();
        inner.get_latency.record(latency);
    }

    /// Windows completed so far.
    pub fn windows_completed(&self) -> u64 {
        self.lock().windows_completed
    }

    /// Every detector transition recorded so far, in firing order.
    pub fn transitions(&self) -> Vec<TransitionRecord> {
        self.lock().transitions.clone()
    }

    /// Current state of one detector.
    pub fn state(&self, detector: HealthDetector) -> HealthState {
        self.lock()
            .detectors
            .iter()
            .find(|slot| slot.detector == detector)
            .map(|slot| slot.state)
            .unwrap_or(HealthState::Healthy)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fold one event in. `shard` is the shard of the enclosing span when
    /// known; events that carry their own shard override it.
    fn on_event(&self, event: &Event, shard: Option<usize>) {
        let fired = {
            let mut inner = self.lock();
            let windows = self.config.windows;
            let mut tick = false;
            match *event {
                Event::DeviceRead { .. } | Event::DeviceTrim { .. } | Event::DeviceSync => {
                    tick = true;
                }
                Event::DeviceWrite { .. } => {
                    tick = true;
                    inner.global.device_writes.incr();
                    if let Some(s) = shard {
                        series(&mut inner, s, windows).device_writes.incr();
                    }
                }
                Event::CacheHit => {
                    inner.global.cache_hits.incr();
                    if let Some(s) = shard {
                        series(&mut inner, s, windows).cache_hits.incr();
                    }
                }
                Event::CacheMiss => {
                    inner.global.cache_misses.incr();
                    if let Some(s) = shard {
                        series(&mut inner, s, windows).cache_misses.incr();
                    }
                }
                Event::WalAppend { .. } => {
                    inner.global.wal_appends.incr();
                    if let Some(s) = shard {
                        series(&mut inner, s, windows).wal_appends.incr();
                    }
                }
                Event::Backpressure { shard: s, .. } => {
                    inner.global.backpressure.incr();
                    series(&mut inner, s, windows).backpressure.incr();
                }
                // Our own output stream looping back must not feed the
                // engine (or recurse); everything else carries no windowed
                // signal.
                _ => {}
            }
            if tick {
                inner.device_ops += 1;
                if inner.device_ops.is_multiple_of(self.config.window_ops) {
                    self.close_window(&mut inner)
                } else {
                    Vec::new()
                }
            } else {
                Vec::new()
            }
        };
        for t in fired {
            self.transitions_to.emit(Event::HealthTransition {
                detector: t.detector,
                from: t.from,
                to: t.to,
                window: t.window,
            });
        }
    }

    /// A window just filled: judge every detector on the pre-rotation
    /// rolling view, record transitions, then rotate every ring.
    fn close_window(&self, inner: &mut Inner) -> Vec<TransitionRecord> {
        let cfg = &self.config;
        let window = inner.windows_completed;

        let put = inner.global.put_latency.rolling();
        let fsync = inner.fsync_latency.rolling();
        let lookups = inner.global.cache_hits.rolling() + inner.global.cache_misses.rolling();
        let baseline_wa = inner.global.baseline_write_amp();
        let breaches = [
            put.count() >= cfg.min_window_samples
                && put.percentile(0.99) > cfg.put_p99_limit as f64,
            inner.global.backpressure.current() > cfg.backpressure_limit,
            baseline_wa > 0.0
                && inner.global.wal_appends.rolling() > 0
                && inner.global.rolling_write_amp() > baseline_wa * cfg.write_amp_drift,
            lookups >= cfg.min_window_lookups
                && inner.global.rolling_hit_rate() < cfg.hit_rate_floor,
            fsync.count() >= cfg.min_window_samples
                && fsync.percentile(0.99) > cfg.fsync_p99_limit as f64,
        ];

        let mut fired = Vec::new();
        for (slot, &breach) in inner.detectors.iter_mut().zip(breaches.iter()) {
            let next = if breach {
                slot.healthy_streak = 0;
                slot.breaching_streak += 1;
                if slot.state == HealthState::Healthy && slot.breaching_streak >= cfg.trip_after {
                    Some(HealthState::Alerting)
                } else {
                    None
                }
            } else {
                slot.breaching_streak = 0;
                slot.healthy_streak += 1;
                if slot.state == HealthState::Alerting && slot.healthy_streak >= cfg.clear_after {
                    Some(HealthState::Healthy)
                } else {
                    None
                }
            };
            if let Some(to) = next {
                let record =
                    TransitionRecord { window, detector: slot.detector, from: slot.state, to };
                slot.state = to;
                if to.is_alerting() {
                    slot.trips += 1;
                }
                fired.push(record);
            }
        }
        inner.transitions.extend(fired.iter().copied());

        inner.slo.rotate();
        inner.global.rotate();
        inner.get_latency.rotate();
        inner.fsync_latency.rotate();
        inner.ops.rotate();
        for shard in &mut inner.shards {
            shard.rotate();
        }
        inner.windows_completed += 1;
        fired
    }

    /// Handle a span close: WAL-append spans feed the fsync-latency
    /// window, lookup spans the read-latency window.
    fn on_span_end(&self, op: &SpanOp, duration: u64) {
        let mut inner = self.lock();
        match op.kind {
            SpanKind::WalAppend => inner.fsync_latency.record(duration),
            SpanKind::Lookup => {
                // A lookup span is a served get: count it here so trees
                // that report through spans need no record_get call (and
                // callers who use record_get must not also be traced, or
                // they would double-count).
                inner.gets += 1;
                inner.ops.incr();
                inner.get_latency.record(duration);
            }
            _ => {}
        }
    }

    /// The versioned `lsm-health/v1` report. Pure function of the events
    /// consumed — byte-identical across same-seed deterministic runs.
    pub fn report(&self) -> Json {
        let inner = self.lock();
        let cumulative = inner.global.put_latency.cumulative();
        let shards: Vec<Json> = inner
            .shards
            .iter()
            .enumerate()
            .map(|(i, set)| {
                let Json::Obj(mut pairs) = set.to_json() else { unreachable!() };
                pairs.insert(0, ("shard".to_string(), Json::from(i)));
                Json::Obj(pairs)
            })
            .collect();
        let detectors: Vec<Json> = inner
            .detectors
            .iter()
            .map(|slot| {
                Json::obj([
                    ("detector", Json::from(slot.detector.name())),
                    ("state", Json::from(slot.state.name())),
                    ("trips", Json::from(slot.trips)),
                ])
            })
            .collect();
        let transitions: Vec<Json> = inner.transitions.iter().map(|t| t.to_json()).collect();
        Json::obj([
            ("schema", Json::from(HEALTH_SCHEMA)),
            (
                "config",
                Json::obj([
                    ("window_ops", Json::from(self.config.window_ops)),
                    ("windows", Json::from(self.config.windows)),
                    ("trip_after", Json::from(u64::from(self.config.trip_after))),
                    ("clear_after", Json::from(u64::from(self.config.clear_after))),
                ]),
            ),
            ("device_ops", Json::from(inner.device_ops)),
            ("windows_completed", Json::from(inner.windows_completed)),
            (
                "rolling",
                Json::obj([
                    ("ops", Json::from(inner.ops.rolling())),
                    ("put_latency", inner.global.put_latency.to_json()),
                    ("get_latency", inner.get_latency.to_json()),
                    ("fsync_latency", inner.fsync_latency.to_json()),
                    ("write_amp", Json::from(inner.global.rolling_write_amp())),
                    ("cache_hit_rate", Json::from(inner.global.rolling_hit_rate())),
                    ("backpressure", Json::from(inner.global.backpressure.rolling())),
                ]),
            ),
            (
                "cumulative",
                Json::obj([
                    ("puts", Json::from(inner.puts)),
                    ("gets", Json::from(inner.gets)),
                    ("device_writes", Json::from(inner.global.device_writes.total())),
                    ("cache_hits", Json::from(inner.global.cache_hits.total())),
                    ("cache_misses", Json::from(inner.global.cache_misses.total())),
                    ("wal_appends", Json::from(inner.global.wal_appends.total())),
                    ("backpressure_stalls", Json::from(inner.global.backpressure.total())),
                    ("write_amp", Json::from(inner.global.baseline_write_amp())),
                    (
                        "put_latency",
                        Json::obj([
                            ("count", Json::from(cumulative.count())),
                            ("p50", Json::from(cumulative.percentile(0.50))),
                            ("p99", Json::from(cumulative.percentile(0.99))),
                            ("p999", Json::from(cumulative.percentile(0.999))),
                            ("max", Json::from(cumulative.max())),
                        ]),
                    ),
                ]),
            ),
            ("detectors", Json::Arr(detectors)),
            ("slo", inner.slo.to_json()),
            ("transitions", Json::Arr(transitions)),
            ("shards", Json::Arr(shards)),
        ])
    }

    /// Export every rolling series as gauges into `metrics` (rendered by
    /// `render_prometheus` as `# TYPE ... gauge`).
    pub fn export_gauges(&self, metrics: &Metrics) {
        let inner = self.lock();
        let put = inner.global.put_latency.rolling();
        metrics.set_gauge("health.windows_completed", inner.windows_completed as f64);
        metrics.set_gauge("health.window.ops", inner.ops.rolling() as f64);
        metrics.set_gauge("health.window.put_p50", put.percentile(0.50));
        metrics.set_gauge("health.window.put_p99", put.percentile(0.99));
        metrics.set_gauge("health.window.put_p999", put.percentile(0.999));
        metrics.set_gauge("health.window.get_p99", inner.get_latency.rolling().percentile(0.99));
        metrics
            .set_gauge("health.window.fsync_p99", inner.fsync_latency.rolling().percentile(0.99));
        metrics.set_gauge("health.window.write_amp", inner.global.rolling_write_amp());
        metrics.set_gauge("health.window.cache_hit_rate", inner.global.rolling_hit_rate());
        metrics.set_gauge("health.window.backpressure", inner.global.backpressure.rolling() as f64);
        metrics.set_gauge("health.slo.short_burn", inner.slo.short_burn());
        metrics.set_gauge("health.slo.long_burn", inner.slo.long_burn());
        for slot in &inner.detectors {
            metrics.set_gauge_with(
                "health.detector.alerting",
                &[("detector", slot.detector.name())],
                if slot.state.is_alerting() { 1.0 } else { 0.0 },
            );
        }
        for (i, set) in inner.shards.iter().enumerate() {
            let shard = i.to_string();
            let labels: [(&str, &str); 1] = [("shard", &shard)];
            metrics.set_gauge_with(
                "health.shard.put_p999",
                &labels,
                set.put_latency.rolling().percentile(0.999),
            );
            metrics.set_gauge_with("health.shard.write_amp", &labels, set.rolling_write_amp());
            metrics.set_gauge_with("health.shard.cache_hit_rate", &labels, set.rolling_hit_rate());
        }
    }
}

/// Fetch (growing on demand) the per-shard series set. Free function so
/// callers holding the `Inner` borrow can use it.
fn series(inner: &mut Inner, shard: usize, windows: usize) -> &mut SeriesSet {
    while inner.shards.len() <= shard {
        inner.shards.push(SeriesSet::new(windows.max(1)));
    }
    &mut inner.shards[shard]
}

impl EventSink for HealthSink {
    fn accept(&self, event: &TraceEvent) {
        match event.kind {
            TraceEventKind::Begin { id, op, .. } => {
                self.lock().open.insert(id.as_u64(), (op, event.at_us));
            }
            TraceEventKind::Emit(inner_event) => {
                let shard = event.span.and_then(|span| {
                    self.lock().open.get(&span.as_u64()).and_then(|(op, _)| op.shard)
                });
                self.on_event(&inner_event, shard);
            }
            TraceEventKind::End { id, op } => {
                let begin = self.lock().open.remove(&id.as_u64());
                if let Some((_, at)) = begin {
                    self.on_span_end(&op, event.at_us.saturating_sub(at));
                }
            }
        }
    }
}

/// Schema tag of the health report.
pub const HEALTH_SCHEMA: &str = "lsm-health/v1";

/// Validate a parsed `lsm-health/v1` document. Returns every problem
/// found (empty = valid), mirroring `validate_bundle`.
pub fn validate_health(doc: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let Json::Obj(pairs) = doc else {
        return vec!["health report is not a JSON object".to_string()];
    };
    let get = |key: &str| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    match get("schema") {
        Some(Json::Str(s)) if s == HEALTH_SCHEMA => {}
        Some(Json::Str(s)) => problems.push(format!("schema is {s:?}, expected {HEALTH_SCHEMA:?}")),
        _ => problems.push("missing string field \"schema\"".to_string()),
    }
    for key in ["device_ops", "windows_completed"] {
        match get(key) {
            Some(Json::U64(_)) => {}
            _ => problems.push(format!("missing numeric field {key:?}")),
        }
    }
    for key in ["config", "rolling", "cumulative", "slo"] {
        match get(key) {
            Some(Json::Obj(_)) => {}
            _ => problems.push(format!("missing object field {key:?}")),
        }
    }
    let valid_detector =
        |name: &str| HealthDetector::all().iter().any(|detector| detector.name() == name);
    let valid_state = |name: &str| name == "healthy" || name == "alerting";
    match get("detectors") {
        Some(Json::Arr(items)) => {
            if items.len() != HealthDetector::all().len() {
                problems.push(format!(
                    "detectors array has {} entries, expected {}",
                    items.len(),
                    HealthDetector::all().len()
                ));
            }
            for (i, item) in items.iter().enumerate() {
                let Json::Obj(fields) = item else {
                    problems.push(format!("detectors[{i}] is not an object"));
                    continue;
                };
                let field = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                match field("detector") {
                    Some(Json::Str(name)) if valid_detector(name) => {}
                    other => problems.push(format!("detectors[{i}] has bad name: {other:?}")),
                }
                match field("state") {
                    Some(Json::Str(state)) if valid_state(state) => {}
                    other => problems.push(format!("detectors[{i}] has bad state: {other:?}")),
                }
            }
        }
        _ => problems.push("missing array field \"detectors\"".to_string()),
    }
    match get("transitions") {
        Some(Json::Arr(items)) => {
            for (i, item) in items.iter().enumerate() {
                let Json::Obj(fields) = item else {
                    problems.push(format!("transitions[{i}] is not an object"));
                    continue;
                };
                let field = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                if !matches!(field("window"), Some(Json::U64(_))) {
                    problems.push(format!("transitions[{i}] missing window"));
                }
                match (field("from"), field("to")) {
                    (Some(Json::Str(from)), Some(Json::Str(to)))
                        if valid_state(from) && valid_state(to) && from != to => {}
                    _ => problems.push(format!("transitions[{i}] has bad from/to states")),
                }
                match field("detector") {
                    Some(Json::Str(name)) if valid_detector(name) => {}
                    other => problems.push(format!("transitions[{i}] has bad detector: {other:?}")),
                }
            }
        }
        _ => problems.push("missing array field \"transitions\"".to_string()),
    }
    match get("shards") {
        Some(Json::Arr(items)) => {
            for (i, item) in items.iter().enumerate() {
                match item {
                    Json::Obj(fields)
                        if matches!(
                            fields.iter().find(|(k, _)| k == "shard").map(|(_, v)| v),
                            Some(Json::U64(n)) if *n == i as u64
                        ) => {}
                    _ => problems.push(format!("shards[{i}] missing or mismatched shard index")),
                }
            }
        }
        _ => problems.push("missing array field \"shards\"".to_string()),
    }
    problems
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::metrics::validate_prometheus;
    use crate::trace::TickClock;
    use crate::VecSink;

    /// Tiny windows so tests cross boundaries fast: 10 device ops per
    /// window, 2-epoch ring, trip after 1 breach, clear after 2 healthy.
    fn test_config() -> HealthConfig {
        HealthConfig {
            window_ops: 10,
            windows: 2,
            put_p99_limit: 1_000,
            fsync_p99_limit: 1_000,
            backpressure_limit: 2,
            min_window_lookups: 4,
            min_window_samples: 4,
            slo_objective: 1_000,
            slo_target: 0.9,
            slo_burn_limit: 1.0,
            ..HealthConfig::default()
        }
    }

    /// A health sink behind a tick-clock handle.
    fn attached(sink: HealthSink) -> (Arc<HealthSink>, SinkHandle) {
        let sink = Arc::new(sink);
        let handle = SinkHandle::with_clock(Arc::new(TickClock::new())).and(sink.clone());
        (sink, handle)
    }

    /// Advance `n` device ops (syncs tick the window counter).
    fn ticks(handle: &SinkHandle, n: u64) {
        for _ in 0..n {
            handle.emit(Event::DeviceSync);
        }
    }

    #[test]
    fn write_stall_trips_within_one_window_and_hysteresis_clears() {
        let downstream = Arc::new(VecSink::new());
        let (sink, handle) = attached(
            HealthSink::new(test_config()).emit_transitions_to(SinkHandle::new(downstream.clone())),
        );

        // Window 0: slow puts breach the p99 limit at the first boundary.
        for _ in 0..8 {
            sink.record_put(Some(0), 5_000);
        }
        ticks(&handle, 10);
        assert_eq!(sink.state(HealthDetector::WriteStall), HealthState::Alerting);
        let fired = sink.transitions();
        assert_eq!(fired.len(), 1, "exactly the stall detector fired: {fired:?}");
        assert_eq!(fired[0].window, 0, "tripped within one window of the stall");
        assert_eq!(fired[0].detector, HealthDetector::WriteStall);
        assert!(fired[0].to.is_alerting());

        // The transition also reached the downstream sink as an event.
        let events = downstream.events();
        assert!(
            matches!(
                events.as_slice(),
                [Event::HealthTransition { detector: HealthDetector::WriteStall, window: 0, .. }]
            ),
            "{events:?}"
        );

        // Window 1: the breaching epoch is still inside the 2-epoch ring,
        // so the rolling p99 still breaches — no clear yet.
        ticks(&handle, 10);
        assert_eq!(sink.state(HealthDetector::WriteStall), HealthState::Alerting);

        // Window 2: the bad epoch aged out — first healthy window, but
        // clear_after = 2 keeps the alert up (hysteresis).
        ticks(&handle, 10);
        assert_eq!(sink.state(HealthDetector::WriteStall), HealthState::Alerting);

        // Window 3: second consecutive healthy window clears it.
        ticks(&handle, 10);
        assert_eq!(sink.state(HealthDetector::WriteStall), HealthState::Healthy);
        let fired = sink.transitions();
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[1].to, HealthState::Healthy);
        assert_eq!(fired[1].window, 3);
    }

    #[test]
    fn backpressure_storm_counts_per_window() {
        let (sink, handle) = attached(HealthSink::new(test_config()));
        for _ in 0..5 {
            handle.emit(Event::Backpressure { shard: 1, backlog: 4 });
        }
        ticks(&handle, 10);
        assert_eq!(sink.state(HealthDetector::BackpressureStorm), HealthState::Alerting);
        // Two quiet windows clear it.
        ticks(&handle, 20);
        assert_eq!(sink.state(HealthDetector::BackpressureStorm), HealthState::Healthy);
        // Stalls at or under the limit never trip.
        let (calm, calm_handle) = attached(HealthSink::new(test_config()));
        for _ in 0..2 {
            calm_handle.emit(Event::Backpressure { shard: 0, backlog: 4 });
        }
        ticks(&calm_handle, 10);
        assert_eq!(calm.state(HealthDetector::BackpressureStorm), HealthState::Healthy);
    }

    #[test]
    fn hit_rate_collapse_needs_enough_lookups() {
        let (sink, handle) = attached(HealthSink::new(test_config()));
        // Only 2 lookups (< min_window_lookups): not judged.
        handle.emit(Event::CacheMiss);
        handle.emit(Event::CacheMiss);
        ticks(&handle, 10);
        assert_eq!(sink.state(HealthDetector::HitRateCollapse), HealthState::Healthy);
        // A real collapse: all misses.
        for _ in 0..8 {
            handle.emit(Event::CacheMiss);
        }
        ticks(&handle, 10);
        assert_eq!(sink.state(HealthDetector::HitRateCollapse), HealthState::Alerting);
    }

    #[test]
    fn write_amp_drift_compares_against_baseline() {
        let mut config = test_config();
        config.windows = 1; // rolling == last window, so old epochs age out fast
        let (sink, handle) = attached(HealthSink::new(config));
        // Establish a healthy baseline: 1 device write per wal append,
        // three full windows of it.
        for block in 0..30 {
            handle.emit(Event::WalAppend { bytes: 32, synced: false });
            handle.emit(Event::DeviceWrite { block });
        }
        assert_eq!(sink.windows_completed(), 3);
        assert_eq!(sink.state(HealthDetector::WriteAmpDrift), HealthState::Healthy);
        // Now 9 writes per append: the next window's rolling amp (~5×)
        // is far above twice the baseline (~1.25×).
        for round in 0..2u64 {
            handle.emit(Event::WalAppend { bytes: 32, synced: false });
            for block in 0..9 {
                handle.emit(Event::DeviceWrite { block: 100 + round * 16 + block });
            }
        }
        assert_eq!(sink.windows_completed(), 4);
        assert_eq!(sink.state(HealthDetector::WriteAmpDrift), HealthState::Alerting);
    }

    #[test]
    fn slo_multi_window_burn() {
        let mut slo = SloTracker::new(0.9, 100, 1.0, 4);
        for _ in 0..10 {
            slo.record(10);
        }
        // No bad requests: zero burn.
        assert!(!slo.rotate());
        // A fully bad epoch: short burn 10×, long burn 5× — both over.
        for _ in 0..10 {
            slo.record(500);
        }
        assert!(slo.rotate(), "both windows burning: must alert");
        assert_eq!(slo.totals(), (10, 10));
    }

    #[test]
    fn report_is_byte_identical_across_same_runs_and_validates() {
        let run = || {
            let (sink, handle) = attached(HealthSink::new(test_config()));
            for i in 0..40 {
                sink.record_put(Some(i % 2), if i % 7 == 0 { 5_000 } else { 100 });
                handle.emit(Event::WalAppend { bytes: 48, synced: true });
                handle.emit(Event::DeviceWrite { block: i as u64 });
                handle.emit(Event::CacheHit);
                if i % 3 == 0 {
                    handle.emit(Event::CacheMiss);
                }
                handle.emit(Event::DeviceSync);
            }
            sink.report().render()
        };
        let first = run();
        let second = run();
        assert_eq!(first, second, "same scripted input must render identically");

        let parsed = Json::parse(&first).unwrap();
        assert_eq!(validate_health(&parsed), Vec::<String>::new());
        // Round-trip through parse/render is also byte-stable.
        assert_eq!(Json::parse(&first).unwrap().render(), first);

        // Tampering is caught.
        let tampered = first.replace("lsm-health/v1", "lsm-health/v0");
        assert!(!validate_health(&Json::parse(&tampered).unwrap()).is_empty());
        assert!(!validate_health(&Json::from(3u64)).is_empty());
    }

    #[test]
    fn spans_attribute_shards_and_durations() {
        let (health, handle) = attached(HealthSink::new(test_config()));

        // A wal-append span on shard 1 containing a device write.
        {
            let _span = handle.span(SpanOp::wal_append().with_shard(1));
            handle.emit(Event::WalAppend { bytes: 16, synced: true });
            handle.emit(Event::DeviceWrite { block: 7 });
        }
        {
            let _span = handle.span(SpanOp::lookup().with_shard(0));
            handle.emit(Event::CacheHit);
        }
        let report = health.report().render();
        let doc = Json::parse(&report).unwrap();
        assert_eq!(validate_health(&doc), Vec::<String>::new(), "{report}");
        // Shard 1 exists and saw the attributed wal append + device write.
        assert!(report.contains("\"shards\":[{\"shard\":0"), "{report}");
        assert!(report.contains("{\"shard\":1"), "{report}");
        // Span durations landed in the latency windows, stamped by the
        // handle's clock: begin, two events, end ⇒ 3 ticks.
        let inner = health.lock();
        assert_eq!(inner.fsync_latency.cumulative().count(), 1);
        assert_eq!(inner.fsync_latency.cumulative().max(), 3);
        assert_eq!(inner.get_latency.cumulative().count(), 1);
        assert_eq!(inner.shards[1].wal_appends.total(), 1);
        assert_eq!(inner.shards[1].device_writes.total(), 1);
        assert_eq!(inner.shards[0].cache_hits.total(), 1);
        assert!(inner.open.is_empty(), "closed spans leave nothing behind");
    }

    #[test]
    fn gauges_export_and_render() {
        let (sink, handle) = attached(HealthSink::new(test_config()));
        sink.record_put(Some(0), 500);
        handle.emit(Event::CacheHit);
        handle.emit(Event::WalAppend { bytes: 8, synced: false });
        handle.emit(Event::DeviceWrite { block: 0 });
        ticks(&handle, 9);
        let metrics = Metrics::new();
        sink.export_gauges(&metrics);
        assert_eq!(metrics.gauge("health.windows_completed"), Some(1.0));
        assert_eq!(metrics.gauge("health.window.cache_hit_rate"), Some(1.0));
        assert_eq!(metrics.gauge("health.detector.alerting{detector=\"write_stall\"}"), Some(0.0));
        let text = metrics.render_prometheus(&[]);
        assert!(text.contains("# TYPE lsm_health_window_write_amp gauge"), "{text}");
        validate_prometheus(&text).expect("gauge exposition validates");
    }
}
