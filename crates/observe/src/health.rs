//! The windowed engine: rolling-window detectors, SLO tracking, the tail
//! reservoir and the amplification series, on one set of windows.
//!
//! [`HealthSink`] consumes the stamped event/span stream the stack already
//! emits — it adds **no new instrumentation call sites on hot paths** and
//! nothing feeds it by hand. Attach it to a
//! [`SinkHandle`](crate::SinkHandle) like any other [`EventSink`]: every
//! entry arrives stamped with its shard, so the sink buckets device/cache
//! activity per shard, and every span's `End` carries its opening stamp,
//! so request latency is read off the stream: a request is the `End` of a
//! *root* span ([`TraceEvent::closes_root`]) — a put of a `Put` span, a
//! get of a `Lookup` span — and an fsync the `End` of a `WalAppend` span.
//! Latencies are in the handle's clock units like every other span:
//! microseconds under the wall clock, ticks under
//! [`TickClock`](crate::TickClock).
//!
//! Windows rotate every [`HealthConfig::window_ops`] *device operations*
//! (reads + writes + trims + syncs), not wall time, so rotation is a pure
//! function of the workload and every windowed statistic is deterministic
//! under [`TickClock`](crate::TickClock) — same seed, byte-identical
//! reports. At each boundary the engine evaluates five detectors with
//! hysteresis ([`HealthConfig::trip_after`] breaching windows to alert,
//! [`HealthConfig::clear_after`] healthy windows to clear), records every
//! state change as a [`TransitionRecord`] ([`HealthSink::transitions`], the
//! report's `transitions` array), feeds the put-latency [`SloTracker`]
//! (multi-window error-budget burn), and, when it keeps the series, takes
//! one row of the amplification series ([`crate::series`]). The same put
//! and get windows set the capture threshold of the tail reservoir
//! ([`crate::exemplar`]).
//!
//! Three reports read the one state: [`HealthSink::report`]
//! (`lsm-health/v1`), always; [`HealthSink::tail_report`] (`lsm-tail/v2`)
//! from an engine built [`with_tail`](HealthSink::with_tail), and
//! [`HealthSink::series`] from one built
//! [`with_series`](HealthSink::with_series). The health state is a set of
//! fixed rings; the tail builds every request's span tree and the series
//! keeps a row per window, so an engine pays for each only when it was
//! asked for.

use std::sync::Mutex;

use crate::exemplar::{Tail, CAPTURE_PERCENTILE, COLD_START, TAIL_SCHEMA};
use crate::json::{Json, Shape};
use crate::series::{Series, SeriesRow, Totals};
use crate::trace::{SpanKind, SpanOp, TraceEvent, TraceEventKind};
use crate::windowed::{RateWindow, WindowedHistogram};
use crate::{Event, EventSink};

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

/// [`HealthDetector::name`] by declaration order; also the names a report
/// may carry.
const DETECTOR_NAMES: [&str; 5] =
    ["write_stall", "backpressure_storm", "write_amp_drift", "hit_rate_collapse", "fsync_spike"];

impl HealthDetector {
    /// Short machine-readable name (used in JSON and metric labels).
    pub fn name(&self) -> &'static str {
        DETECTOR_NAMES[*self as usize]
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

/// Tuning for the health engine. Latency limits are in the handle's clock
/// units (microseconds for real runs, ticks under
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
    /// Tail reservoir: slowest root spans kept per shard and kind.
    pub exemplars_per_shard: usize,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            window_ops: 2000,
            windows: 8,
            put_p99_limit: 50_000,
            fsync_p99_limit: 20_000,
            backpressure_limit: 8,
            write_amp_drift: 2.0,
            hit_rate_floor: 0.10,
            min_window_lookups: 64,
            min_window_samples: 16,
            trip_after: 1,
            clear_after: 2,
            slo_target: 0.999,
            slo_objective: 10_000,
            slo_burn_limit: 2.0,
            exemplars_per_shard: 4,
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

/// Rolling windows kept per scope (one global set plus one per shard).
#[derive(Debug)]
struct ScopeWindows {
    put_latency: WindowedHistogram,
    device_writes: RateWindow,
    cache_hits: RateWindow,
    cache_misses: RateWindow,
    wal_appends: RateWindow,
    /// Records flushed out of L0: what write amplification is per. Every
    /// tree flushes; only a logged one appends to a WAL.
    flushed_records: RateWindow,
    backpressure: RateWindow,
}

impl ScopeWindows {
    fn new(windows: usize) -> Self {
        ScopeWindows {
            put_latency: WindowedHistogram::new(windows),
            device_writes: RateWindow::new(windows),
            cache_hits: RateWindow::new(windows),
            cache_misses: RateWindow::new(windows),
            wal_appends: RateWindow::new(windows),
            flushed_records: RateWindow::new(windows),
            backpressure: RateWindow::new(windows),
        }
    }

    fn rotate(&mut self) {
        self.put_latency.rotate();
        self.device_writes.rotate();
        self.cache_hits.rotate();
        self.cache_misses.rotate();
        self.wal_appends.rotate();
        self.flushed_records.rotate();
        self.backpressure.rotate();
    }

    /// Rolling write amplification: device blocks written per record
    /// flushed out of L0 (the series states it per block of records; a
    /// drift, a ratio of two of these, is the same either way).
    fn rolling_write_amp(&self) -> f64 {
        write_amp(self.device_writes.rolling(), self.flushed_records.rolling())
    }

    /// All-time write amplification (the drift baseline).
    fn baseline_write_amp(&self) -> f64 {
        write_amp(self.device_writes.total(), self.flushed_records.total())
    }

    fn rolling_hit_rate(&self) -> f64 {
        hit_rate(self.cache_hits.rolling(), self.cache_misses.rolling())
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("put_latency", self.put_latency.to_json()),
            ("device_writes", Json::from(self.device_writes.rolling())),
            ("wal_appends", Json::from(self.wal_appends.rolling())),
            ("flushed_records", Json::from(self.flushed_records.rolling())),
            ("write_amp", Json::from(self.rolling_write_amp())),
            ("cache_hit_rate", Json::from(self.rolling_hit_rate())),
            ("backpressure", Json::from(self.backpressure.rolling())),
        ])
    }
}

/// Device blocks written per record flushed out of L0, or 0 before the
/// first flush.
fn write_amp(device_writes: u64, flushed_records: u64) -> f64 {
    if flushed_records == 0 {
        0.0
    } else {
        device_writes as f64 / flushed_records as f64
    }
}

/// Cache hits per lookup, or 1.0 with no lookups (vacuously healthy).
fn hit_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        1.0
    } else {
        hits as f64 / (hits + misses) as f64
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
    global: ScopeWindows,
    get_latency: WindowedHistogram,
    fsync_latency: WindowedHistogram,
    ops: RateWindow,
    shards: Vec<ScopeWindows>,
    detectors: Vec<DetectorSlot>,
    slo: SloTracker,
    transitions: Vec<TransitionRecord>,
    /// The tail reservoir, when the engine was built with it.
    tail: Option<Tail>,
    /// The amplification series, when the engine was built with it.
    series: Option<Series>,
}

impl Inner {
    /// The counters a series row shares with the health windows.
    fn totals(&self) -> Totals {
        let global = &self.global;
        Totals {
            device_ops: self.device_ops,
            device_writes: global.device_writes.total(),
            flushed_records: global.flushed_records.total(),
            cache_hit_rate: hit_rate(global.cache_hits.total(), global.cache_misses.total()),
        }
    }
}

/// The windowed engine. See the [module docs](self) for how to attach it.
pub struct HealthSink {
    config: HealthConfig,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for HealthSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthSink").field("config", &self.config).finish_non_exhaustive()
    }
}

impl HealthSink {
    /// An engine with the given tuning that keeps the health report only;
    /// [`with_tail`](Self::with_tail) and [`with_series`](Self::with_series)
    /// add the other two.
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
                global: ScopeWindows::new(windows),
                get_latency: WindowedHistogram::new(windows),
                fsync_latency: WindowedHistogram::new(windows),
                ops: RateWindow::new(windows),
                shards: Vec::new(),
                detectors,
                slo,
                transitions: Vec::new(),
                tail: None,
                series: None,
            }),
            config,
        }
    }

    /// Defaults, health report only.
    pub fn with_defaults() -> Self {
        Self::new(HealthConfig::default())
    }

    /// Also keep the tail reservoir, for [`tail_report`](Self::tail_report):
    /// every request's span tree is built, and scheduler queue delay is
    /// paired.
    pub fn with_tail(mut self) -> Self {
        let windows = self.config.windows;
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner()).tail = Some(Tail::new(windows));
        self
    }

    /// Also keep the amplification series, for [`series`](Self::series):
    /// one row per closed window, and the wear of every block written.
    pub fn with_series(mut self) -> Self {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner()).series = Some(Series::default());
        self
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
        self.lock().detectors[detector as usize].state
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fold one plain event in: a device op ticks the window clock, and
    /// the events with a rolling counter bump it globally and for their
    /// shard — the entry's stamp, or the one a `Backpressure` names itself.
    fn on_event(&self, inner: &mut Inner, event: &Event, shard: Option<usize>) {
        type Counter = fn(&mut ScopeWindows) -> &mut RateWindow;
        let amount = if let Event::MemtableFlush { records, .. } = *event { records } else { 1 };
        let (counter, shard): (Option<Counter>, _) = match *event {
            Event::DeviceWrite { .. } => (Some(|s| &mut s.device_writes), shard),
            Event::CacheHit => (Some(|s| &mut s.cache_hits), shard),
            Event::CacheMiss => (Some(|s| &mut s.cache_misses), shard),
            Event::WalAppend { .. } => (Some(|s| &mut s.wal_appends), shard),
            Event::MemtableFlush { .. } => (Some(|s| &mut s.flushed_records), shard),
            Event::Backpressure { shard, .. } => (Some(|s| &mut s.backpressure), Some(shard)),
            _ => (None, shard),
        };
        if let Some(counter) = counter {
            counter(&mut inner.global).add(amount);
            if let Some(shard) = shard {
                counter(shard_windows(inner, shard, self.config.windows)).add(amount);
            }
        }
        if let Some(series) = &mut inner.series {
            series.fold(event, shard);
        }
        let device_op = matches!(
            event,
            Event::DeviceRead { .. }
                | Event::DeviceWrite { .. }
                | Event::DeviceTrim { .. }
                | Event::DeviceSync
        );
        if device_op {
            inner.device_ops += 1;
            if inner.device_ops.is_multiple_of(self.config.window_ops) {
                self.close_window(inner);
            }
        }
    }

    /// A root span closed: a request, if it is a `Put` or a `Lookup`. It
    /// lands in its latency window (a put also in its shard's and the
    /// SLO's). Returns whether its tree belongs in the tail reservoir: the
    /// engine keeps one, and the root is among the first [`COLD_START`] of
    /// its kind or at least the rolling [`CAPTURE_PERCENTILE`] of its
    /// window.
    fn on_root(&self, inner: &mut Inner, op: SpanOp, latency: u64) -> bool {
        let tailing = inner.tail.is_some();
        let window = match op.kind {
            SpanKind::Put => {
                inner.slo.record(latency);
                if let Some(shard) = op.shard {
                    shard_windows(inner, shard, self.config.windows).put_latency.record(latency);
                }
                &mut inner.global.put_latency
            }
            SpanKind::Lookup => &mut inner.get_latency,
            _ => return false,
        };
        window.record(latency);
        let keep = tailing
            && (window.cumulative().count() <= COLD_START
                || latency as f64 >= window.rolling().percentile(CAPTURE_PERCENTILE));
        inner.ops.incr();
        keep
    }

    /// A window just filled: judge every detector on the pre-rotation
    /// rolling view, record transitions, take the series row if the series
    /// is kept, then rotate every ring.
    fn close_window(&self, inner: &mut Inner) {
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
                && inner.global.flushed_records.rolling() > 0
                && inner.global.rolling_write_amp() > baseline_wa * cfg.write_amp_drift,
            lookups >= cfg.min_window_lookups
                && inner.global.rolling_hit_rate() < cfg.hit_rate_floor,
            fsync.count() >= cfg.min_window_samples
                && fsync.percentile(0.99) > cfg.fsync_p99_limit as f64,
        ];

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
                inner.transitions.push(TransitionRecord {
                    window,
                    detector: slot.detector,
                    from: slot.state,
                    to,
                });
                slot.state = to;
                if to.is_alerting() {
                    slot.trips += 1;
                }
            }
        }

        let totals = inner.totals();
        if let Some(series) = &mut inner.series {
            series.push(&totals);
        }
        inner.slo.rotate();
        inner.global.rotate();
        inner.get_latency.rotate();
        inner.fsync_latency.rotate();
        inner.ops.rotate();
        if let Some(tail) = &mut inner.tail {
            tail.queue_delay.rotate();
        }
        for shard in &mut inner.shards {
            shard.rotate();
        }
        inner.windows_completed += 1;
    }

    /// The versioned `lsm-health/v1` report. Pure function of the events
    /// consumed — byte-identical across same-seed deterministic runs.
    pub fn report(&self) -> Json {
        let inner = self.lock();
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
                    ("puts", Json::from(inner.global.put_latency.cumulative().count())),
                    ("gets", Json::from(inner.get_latency.cumulative().count())),
                    ("device_writes", Json::from(inner.global.device_writes.total())),
                    ("cache_hits", Json::from(inner.global.cache_hits.total())),
                    ("cache_misses", Json::from(inner.global.cache_misses.total())),
                    ("wal_appends", Json::from(inner.global.wal_appends.total())),
                    ("flushed_records", Json::from(inner.global.flushed_records.total())),
                    ("backpressure_stalls", Json::from(inner.global.backpressure.total())),
                    ("write_amp", Json::from(inner.global.baseline_write_amp())),
                    ("put_latency", inner.global.put_latency.cumulative().tail_json()),
                ]),
            ),
            ("detectors", Json::Arr(detectors)),
            ("slo", inner.slo.to_json()),
            ("transitions", Json::Arr(transitions)),
            ("shards", Json::Arr(shards)),
        ])
    }

    /// The versioned `lsm-tail/v2` report of the tail reservoir: capture
    /// thresholds, the queue-delay windows, the lookup latency the health
    /// report does not hold, and the blame table over the captured trees,
    /// globally and per shard; `None` unless the engine was built
    /// [`with_tail`](Self::with_tail). Request counts, windows and put
    /// latency are the health report's. Pure: same state, same bytes.
    pub fn tail_report(&self) -> Option<Json> {
        let inner = self.lock();
        let tail = inner.tail.as_ref()?;
        let (put, get, queue) = (&inner.global.put_latency, &inner.get_latency, &tail.queue_delay);
        let threshold =
            |w: &WindowedHistogram| Json::from(w.rolling().percentile(CAPTURE_PERCENTILE));
        let mut doc = vec![
            ("schema".to_string(), Json::from(TAIL_SCHEMA)),
            (
                "config".to_string(),
                Json::obj([
                    ("per_shard", Json::from(self.config.exemplars_per_shard)),
                    ("percentile", Json::from(CAPTURE_PERCENTILE)),
                    ("min_samples", Json::from(COLD_START)),
                ]),
            ),
            (
                "threshold".to_string(),
                Json::obj([("put", threshold(put)), ("lookup", threshold(get))]),
            ),
            ("rolling".to_string(), Json::obj([("queue_delay", queue.to_json())])),
            (
                "cumulative".to_string(),
                Json::obj([
                    ("lookup_latency", get.cumulative().tail_json()),
                    ("queue_delay", queue.cumulative().tail_json()),
                ]),
            ),
        ];
        let cumulative = put.cumulative();
        doc.extend(tail.blame_sections(cumulative.percentile(0.99), cumulative.percentile(0.999)));
        Some(Json::Obj(doc))
    }

    /// The amplification series: one row per closed window, plus one at
    /// the counters as they stand (so a short run yields a row too);
    /// `None` unless the engine was built [`with_series`](Self::with_series).
    pub fn series(&self) -> Option<Vec<SeriesRow>> {
        let inner = self.lock();
        let series = inner.series.as_ref()?;
        let mut rows = series.rows().to_vec();
        rows.push(series.row(&inner.totals()));
        Some(rows)
    }
}

/// Fetch (growing on demand) the per-shard windows. Free function so
/// callers holding the `Inner` borrow can use it.
fn shard_windows(inner: &mut Inner, shard: usize, windows: usize) -> &mut ScopeWindows {
    while inner.shards.len() <= shard {
        inner.shards.push(ScopeWindows::new(windows.max(1)));
    }
    &mut inner.shards[shard]
}

impl EventSink for HealthSink {
    /// A kept tail folds every entry into its span trees first; then plain
    /// events go to `on_event`, a closing root span to `on_root` (and, if
    /// it qualifies, its tree to the reservoir), and a closing `WalAppend`
    /// is an fsync.
    fn accept(&self, entry: &TraceEvent) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let tree = inner.tail.as_mut().and_then(|tail| tail.on_entry(entry));
        match entry.kind {
            TraceEventKind::Begin { .. } => {}
            TraceEventKind::Emit(event) => self.on_event(inner, &event, entry.shard),
            TraceEventKind::End { op, began_us, .. } => {
                let latency = entry.at_us.saturating_sub(began_us);
                if op.kind == SpanKind::WalAppend {
                    inner.fsync_latency.record(latency);
                }
                if entry.closes_root() && self.on_root(inner, op, latency) {
                    if let (Some(tail), Some(span)) = (&mut inner.tail, tree) {
                        tail.keep(span, self.config.exemplars_per_shard);
                    }
                }
            }
        }
    }
}

/// Schema tag of the health report.
pub const HEALTH_SCHEMA: &str = "lsm-health/v1";

const DETECTOR: Shape = Shape::OneOf(&DETECTOR_NAMES);
const STATE: Shape = Shape::OneOf(&["healthy", "alerting"]);

/// Members and types of an `lsm-health/v1` document.
const HEALTH_SHAPE: Shape = Shape::Obj(&[
    ("schema", Shape::OneOf(&[HEALTH_SCHEMA])),
    ("config", Shape::Obj(&[("window_ops", Shape::Int), ("windows", Shape::Int)])),
    ("device_ops", Shape::Int),
    ("windows_completed", Shape::Int),
    ("rolling", Shape::Obj(&[])),
    ("cumulative", Shape::Obj(&[("puts", Shape::Int)])),
    ("detectors", Shape::Arr(&Shape::Obj(&[("detector", DETECTOR), ("state", STATE)]))),
    ("slo", Shape::Obj(&[])),
    (
        "transitions",
        Shape::Arr(&Shape::Obj(&[
            ("window", Shape::Int),
            ("detector", DETECTOR),
            ("from", STATE),
            ("to", STATE),
        ])),
    ),
    ("shards", Shape::Arr(&Shape::Obj(&[("shard", Shape::Int)]))),
]);

/// Validate a parsed `lsm-health/v1` document. Returns every problem
/// found (empty = valid).
pub fn validate_health(doc: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    doc.check(&HEALTH_SHAPE, "health", &mut problems);
    let detectors = doc.get("detectors").items().len();
    if detectors != DETECTOR_NAMES.len() {
        problems.push(format!(
            "detectors array has {detectors} entries, expected {}",
            DETECTOR_NAMES.len()
        ));
    }
    for (i, transition) in doc.get("transitions").items().iter().enumerate() {
        if transition.get("from") == transition.get("to") {
            problems.push(format!("transitions[{i}] does not change state"));
        }
    }
    for (i, shard) in doc.get("shards").items().iter().enumerate() {
        if shard.get("shard").as_u64() != Some(i as u64) {
            problems.push(format!("shards[{i}] mismatched shard index"));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::trace::{SpanId, SpanOp, TickClock};
    use crate::SinkHandle;

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

    /// One served put of `latency` on `shard`, as the stamper reports it:
    /// the `Begin` and `End` of a root `Put` span.
    fn put(sink: &HealthSink, shard: Option<usize>, latency: u64) {
        let (id, op) = (SpanId::from_raw(1), SpanOp { shard, ..SpanOp::put() });
        let begin = TraceEventKind::Begin { id, parent: None, op };
        sink.accept(&TraceEvent { at_us: 7, span: None, shard, kind: begin });
        let end = TraceEventKind::End { id, op, began_us: 7 };
        sink.accept(&TraceEvent { at_us: 7 + latency, span: None, shard, kind: end });
    }

    /// Advance `n` device ops (syncs tick the window counter).
    fn ticks(handle: &SinkHandle, n: u64) {
        for _ in 0..n {
            handle.emit(Event::DeviceSync);
        }
    }

    #[test]
    fn write_stall_trips_within_one_window_and_hysteresis_clears() {
        let (sink, handle) = attached(HealthSink::new(test_config()));

        // Window 0: slow puts breach the p99 limit at the first boundary.
        for _ in 0..8 {
            put(&sink, Some(0), 5_000);
        }
        ticks(&handle, 10);
        assert_eq!(sink.state(HealthDetector::WriteStall), HealthState::Alerting);
        let fired = sink.transitions();
        assert_eq!(fired.len(), 1, "exactly the stall detector fired: {fired:?}");
        assert_eq!(fired[0].window, 0, "tripped within one window of the stall");
        assert_eq!(fired[0].detector, HealthDetector::WriteStall);
        assert!(fired[0].to.is_alerting());

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
    fn only_root_put_spans_are_requests() {
        let (sink, handle) = attached(HealthSink::new(test_config()));
        {
            // A batch: one root put whose inner tree opens a put of its own.
            let _request = handle.span(SpanOp::put().with_shard(1));
            drop(handle.span(SpanOp::put().with_shard(1)));
            drop(handle.span(SpanOp::wal_append().with_shard(1)));
        }
        let report = sink.report();
        assert_eq!(report.get("cumulative").get("puts").as_u64(), Some(1));
        let slo = report.get("slo");
        assert_eq!((slo.get("good").as_u64(), slo.get("bad").as_u64()), (Some(1), Some(0)));
        assert_eq!(
            report.get("shards").items()[1].get("put_latency").get("count").as_u64(),
            Some(1)
        );
        // Tick clock: the root put spans begin..end of both children.
        assert_eq!(report.get("cumulative").get("put_latency").get("max").as_u64(), Some(5));
        assert_eq!(report.get("rolling").get("fsync_latency").get("count").as_u64(), Some(1));
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
        // Establish a healthy baseline: 1 device write per flushed record,
        // three full windows of it.
        for block in 0..30 {
            handle.emit(Event::MemtableFlush { records: 1, full: false });
            handle.emit(Event::DeviceWrite { block });
        }
        assert_eq!(sink.windows_completed(), 3);
        assert_eq!(sink.state(HealthDetector::WriteAmpDrift), HealthState::Healthy);
        // Now 9 writes per record: the next window's rolling amp (~5×)
        // is far above twice the baseline (~1.25×).
        for round in 0..2u64 {
            handle.emit(Event::MemtableFlush { records: 1, full: false });
            for block in 0..9 {
                handle.emit(Event::DeviceWrite { block: 100 + round * 16 + block });
            }
        }
        assert_eq!(sink.windows_completed(), 4);
        assert_eq!(sink.state(HealthDetector::WriteAmpDrift), HealthState::Alerting);
    }

    #[test]
    fn write_amp_drift_fires_on_a_tree_without_a_wal() {
        // Regression: the ratio was device writes per *WAL append*, so on a
        // tree that logs nothing it was 0 / 0 in every window and the
        // detector could not fire. The stream of an unlogged tree: flushes
        // of 36 records and the blocks its merges write, no `WalAppend`.
        let mut config = test_config();
        (config.windows, config.write_amp_drift) = (1, 1.5);
        let (sink, handle) = attached(HealthSink::new(config));
        let mut block = 0;
        let mut flush_and_merge = |writes: u64| {
            handle.emit(Event::MemtableFlush { records: 36, full: false });
            for _ in 0..writes {
                block += 1;
                handle.emit(Event::DeviceWrite { block });
            }
        };
        // Five blocks written per block's worth of records flushed, for
        // six windows; then the merges start rewriting twice as much.
        (0..12).for_each(|_| flush_and_merge(5));
        assert_eq!(sink.windows_completed(), 6);
        assert_eq!(sink.state(HealthDetector::WriteAmpDrift), HealthState::Healthy);
        let report = sink.report();
        assert_eq!(report.get("cumulative").get("wal_appends").as_u64(), Some(0));
        assert_eq!(report.get("cumulative").get("flushed_records").as_u64(), Some(12 * 36));
        assert_eq!(report.get("cumulative").get("write_amp").as_f64(), Some(5.0 / 36.0));
        (0..2).for_each(|_| flush_and_merge(10));
        assert_eq!(sink.windows_completed(), 8);
        assert_eq!(sink.state(HealthDetector::WriteAmpDrift), HealthState::Alerting);
        let fired = sink.transitions();
        assert_eq!((fired.len(), fired[0].detector), (1, HealthDetector::WriteAmpDrift));
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
                put(&sink, Some(i % 2), if i % 7 == 0 { 5_000 } else { 100 });
                handle.emit(Event::WalAppend { bytes: 48 });
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
            handle.emit(Event::WalAppend { bytes: 16 });
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
    }

    /// An engine that keeps neither the tail nor the series holds fixed
    /// rings however long it runs: no rows, no wear, no span trees.
    #[test]
    fn a_health_only_engine_keeps_no_history() {
        let run = |sink: HealthSink| {
            let (sink, handle) = attached(sink);
            for block in 0..10_000u64 {
                let _put = handle.span(SpanOp::put().with_shard(0));
                handle.emit(Event::DeviceWrite { block });
            }
            assert_eq!(sink.windows_completed(), 1_000);
            sink
        };
        let health = run(HealthSink::new(test_config()));
        assert!(health.series().is_none() && health.tail_report().is_none());
        let inner = health.lock();
        assert!(inner.series.is_none() && inner.tail.is_none());
        assert_eq!((inner.shards.len(), inner.transitions.len()), (1, 0));
        drop(inner);
        // Asked for, the series keeps a row a window (and the last one).
        let series = run(HealthSink::new(test_config()).with_series());
        assert_eq!(series.series().map(|rows| rows.len()), Some(1_001));
    }
}
