//! Tail-latency exemplars: the slowest complete span trees, kept whole.
//!
//! Histograms ([`crate::windowed`]) say *how slow* the p99.9 put was;
//! they cannot say *where the time went*. This module keeps the evidence:
//! an [`ExemplarSink`] watches the span stream and retains a bounded
//! top-K reservoir of the slowest *complete* `Put` / `Lookup` span trees
//! per shard — Prometheus-exemplar style, except the exemplar is the whole
//! causal tree, not just a trace id.
//!
//! A completed root's direct children partition its latency into *phases*
//! (`lock_wait`, `wal_append`, `group_commit_wait`, `backpressure_wait`,
//! `cascade`, …); whatever the children leave uncovered is `unattributed`
//! for a put (frame encoding, memtable inserts, anything no child span
//! covers) and the operation's own name otherwise. Phases therefore sum to
//! the root's duration *by construction* — exactly, under any monotonic
//! clock.
//!
//! The capture threshold tracks the rolling percentile
//! ([`ExemplarConfig::percentile`]) of a [`WindowedHistogram`] that
//! rotates every [`ExemplarConfig::window_puts`] completed roots, so the
//! reservoir chases the *current* tail rather than boot-time noise. Under
//! [`TickClock`](crate::TickClock) the whole pipeline — thresholds,
//! evictions, the rendered report — is deterministic and byte-identical
//! across replays.
//!
//! Scheduler queue delay rides along: the flat event stream already
//! carries `FlushEnqueued` (a memtable sealed) and `JobStart` (a worker
//! picked the shard up), and the sink pairs them FIFO per shard into a
//! `queue_delay` histogram.
//!
//! [`ExemplarSink::report`] renders everything as a versioned
//! `lsm-tail/v1` JSON document with a critical-path *blame table*: per
//! phase, its share of all captured put latency and of the p99/p99.9
//! tail. [`validate_tail`] checks any such document, including that every
//! exemplar's phases sum to within 1% of its duration.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard};

use crate::json::{Json, Shape};
use crate::metrics::Metrics;
use crate::trace::{SpanKind, SpanOp, TraceEvent, TraceEventKind};
use crate::windowed::WindowedHistogram;
use crate::{Event, EventSink};

/// Schema identifier stamped into (and required from) tail reports.
pub const TAIL_SCHEMA: &str = "lsm-tail/v1";

/// Tuning for an [`ExemplarSink`].
#[derive(Debug, Clone)]
pub struct ExemplarConfig {
    /// Reservoir capacity: slowest spans kept per shard *per kind*.
    pub per_shard: usize,
    /// Rolling ring depth for the latency/queue-delay histograms.
    pub windows: usize,
    /// Completed `Put`/`Lookup` roots per window (the rotation pace).
    pub window_puts: u64,
    /// Rolling percentile a root must reach to be considered for capture
    /// once `min_samples` have been seen.
    pub percentile: f64,
    /// Capture unconditionally until this many roots of the kind have
    /// completed (the threshold is noise before that).
    pub min_samples: u64,
}

impl Default for ExemplarConfig {
    fn default() -> Self {
        ExemplarConfig {
            per_shard: 4,
            windows: 8,
            window_puts: 512,
            percentile: 0.95,
            min_samples: 32,
        }
    }
}

/// One completed span in a captured exemplar tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExemplarSpan {
    /// What the span covered (kind, level, shard, …).
    pub op: SpanOp,
    /// Clock reading when the span opened.
    pub start_us: u64,
    /// Closing reading minus opening reading.
    pub duration_us: u64,
    /// Completed direct children, in completion order.
    pub children: Vec<ExemplarSpan>,
}

impl ExemplarSpan {
    /// Partition this span's duration into named phases: direct children
    /// aggregated by kind, plus a residual phase for the time no child
    /// covers (`unattributed` for a put, the kind's own name otherwise).
    /// The phase values always sum to `duration_us` exactly.
    pub fn phases(&self) -> Vec<(&'static str, u64)> {
        let mut by: BTreeMap<&'static str, u64> = BTreeMap::new();
        for child in &self.children {
            *by.entry(child.op.kind.name()).or_insert(0) += child.duration_us;
        }
        let child_sum: u64 = by.values().sum();
        let residual_name = match self.op.kind {
            SpanKind::Put => "unattributed",
            other => other.name(),
        };
        let mut out: Vec<(&'static str, u64)> = by.into_iter().collect();
        let residual = self.duration_us.saturating_sub(child_sum);
        if residual > 0 || out.is_empty() {
            match out.iter_mut().find(|(name, _)| *name == residual_name) {
                Some((_, us)) => *us += residual,
                None => out.push((residual_name, residual)),
            }
        }
        out
    }

    fn tree_json(&self) -> Json {
        Json::obj([
            ("op", Json::from(self.op.label())),
            ("start_us", Json::from(self.start_us)),
            ("duration_us", Json::from(self.duration_us)),
            ("children", Json::arr(self.children.iter().map(ExemplarSpan::tree_json))),
        ])
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::from(self.op.kind.name())),
            ("shard", self.op.shard.map_or(Json::Null, Json::from)),
            ("start_us", Json::from(self.start_us)),
            ("duration_us", Json::from(self.duration_us)),
            (
                "phases",
                Json::arr(self.phases().into_iter().map(|(phase, us)| {
                    Json::obj([("phase", Json::from(phase)), ("us", Json::from(us))])
                })),
            ),
            ("tree", self.tree_json()),
        ])
    }
}

struct Inner {
    /// Completed children of every span still open, by raw span id — the
    /// table trees are built in. What a span was and when it began comes
    /// back on its `End`.
    open: HashMap<u64, Vec<ExemplarSpan>>,
    completed_put: u64,
    completed_lookup: u64,
    roots_in_window: u64,
    windows_completed: u64,
    put_latency: WindowedHistogram,
    lookup_latency: WindowedHistogram,
    queue_delay: WindowedHistogram,
    /// FIFO enqueue timestamps per shard, paired with `JobStart`.
    pending_jobs: BTreeMap<Option<usize>, VecDeque<u64>>,
    /// Top-K slowest put roots per shard (`None` = unsharded).
    puts: BTreeMap<Option<usize>, Vec<ExemplarSpan>>,
    /// Top-K slowest lookup roots per shard.
    lookups: BTreeMap<Option<usize>, Vec<ExemplarSpan>>,
}

/// Captures the slowest complete `Put`/`Lookup` span trees per shard and
/// renders them as an `lsm-tail/v1` blame report. See the module docs.
pub struct ExemplarSink {
    config: ExemplarConfig,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for ExemplarSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExemplarSink").field("config", &self.config).finish()
    }
}

impl ExemplarSink {
    /// A sink with the given tuning and an empty reservoir.
    pub fn new(config: ExemplarConfig) -> Self {
        let windows = config.windows.max(1);
        ExemplarSink {
            config,
            inner: Mutex::new(Inner {
                open: HashMap::new(),
                completed_put: 0,
                completed_lookup: 0,
                roots_in_window: 0,
                windows_completed: 0,
                put_latency: WindowedHistogram::new(windows),
                lookup_latency: WindowedHistogram::new(windows),
                queue_delay: WindowedHistogram::new(windows),
                pending_jobs: BTreeMap::new(),
                puts: BTreeMap::new(),
                lookups: BTreeMap::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // The sink only folds counters; a panic mid-update cannot corrupt
        // invariants worth halting observability for.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Windows rotated so far (the rolling-threshold pace).
    pub fn windows_completed(&self) -> u64 {
        self.lock().windows_completed
    }

    /// Completed `Put` roots observed.
    pub fn completed_puts(&self) -> u64 {
        self.lock().completed_put
    }

    /// Completed `Lookup` roots observed.
    pub fn completed_lookups(&self) -> u64 {
        self.lock().completed_lookup
    }

    /// Exemplar trees currently held across all reservoirs.
    pub fn captured(&self) -> usize {
        let inner = self.lock();
        inner.puts.values().chain(inner.lookups.values()).map(Vec::len).sum()
    }

    /// The phase with the largest share of captured put latency, if any
    /// put exemplar has been captured.
    pub fn dominant_phase(&self) -> Option<&'static str> {
        let inner = self.lock();
        let spans: Vec<&ExemplarSpan> = inner.puts.values().flatten().collect();
        let (_, dominant) = blame(&spans, f64::MAX, f64::MAX);
        dominant
    }

    /// A root span closed ([`TraceEvent::closes_root`]): count it, and keep
    /// its tree if it is slow enough.
    fn on_root(&self, inner: &mut Inner, span: ExemplarSpan) {
        let kind = span.op.kind;
        if !matches!(kind, SpanKind::Put | SpanKind::Lookup) {
            return;
        }
        let duration = span.duration_us;
        let is_put = kind == SpanKind::Put;
        let (count, threshold) = {
            let hist = if is_put { &mut inner.put_latency } else { &mut inner.lookup_latency };
            hist.record(duration);
            (hist.cumulative().count(), hist.rolling().percentile(self.config.percentile))
        };
        if is_put {
            inner.completed_put += 1;
        } else {
            inner.completed_lookup += 1;
        }
        // Capture until the histogram can speak, then only the tail.
        if count <= self.config.min_samples || duration as f64 >= threshold {
            let reservoir = if is_put { &mut inner.puts } else { &mut inner.lookups };
            let slot = reservoir.entry(span.op.shard).or_default();
            if slot.len() < self.config.per_shard.max(1) {
                slot.push(span);
            } else {
                let mut min_i = 0;
                for (i, held) in slot.iter().enumerate() {
                    if held.duration_us < slot[min_i].duration_us {
                        min_i = i;
                    }
                }
                // Strict eviction: ties keep the earlier capture, so the
                // reservoir is deterministic under a tick clock.
                if duration > slot[min_i].duration_us {
                    slot[min_i] = span;
                }
            }
        }
        inner.roots_in_window += 1;
        if inner.roots_in_window >= self.config.window_puts.max(1) {
            inner.roots_in_window = 0;
            inner.windows_completed += 1;
            inner.put_latency.rotate();
            inner.lookup_latency.rotate();
            inner.queue_delay.rotate();
        }
    }

    fn on_event(&self, inner: &mut Inner, event: &Event, shard: Option<usize>, at: u64) {
        match *event {
            Event::FlushEnqueued { .. } => {
                inner.pending_jobs.entry(shard).or_default().push_back(at);
            }
            Event::JobStart { shard, .. } => {
                // Prefer the shard's own queue; an unsharded front-end
                // enqueues under `None` while its scheduler still names
                // the registration id.
                let enqueued =
                    inner.pending_jobs.get_mut(&Some(shard)).and_then(VecDeque::pop_front).or_else(
                        || inner.pending_jobs.get_mut(&None).and_then(VecDeque::pop_front),
                    );
                if let Some(t) = enqueued {
                    inner.queue_delay.record(at.saturating_sub(t));
                }
            }
            _ => {}
        }
    }

    /// Render the `lsm-tail/v1` report. Pure: same state, same bytes.
    pub fn report(&self) -> Json {
        let inner = self.lock();
        let put_p99 = inner.put_latency.cumulative().percentile(0.99);
        let put_p999 = inner.put_latency.cumulative().percentile(0.999);

        let all_puts: Vec<&ExemplarSpan> = inner.puts.values().flatten().collect();
        let (global_blame, global_dominant) = blame(&all_puts, put_p99, put_p999);

        let mut shard_keys: Vec<usize> =
            inner.puts.keys().chain(inner.lookups.keys()).filter_map(|k| *k).collect();
        shard_keys.sort_unstable();
        shard_keys.dedup();
        let shards = Json::arr(shard_keys.into_iter().map(|shard| {
            let key = Some(shard);
            let mut pairs = vec![("shard".to_string(), Json::from(shard))];
            pairs.extend(scope_json(&inner, &key, put_p99, put_p999));
            Json::Obj(pairs)
        }));
        let unsharded = Json::Obj(scope_json(&inner, &None, put_p99, put_p999));

        Json::obj([
            ("schema", Json::from(TAIL_SCHEMA)),
            (
                "config",
                Json::obj([
                    ("per_shard", Json::from(self.config.per_shard)),
                    ("windows", Json::from(self.config.windows)),
                    ("window_puts", Json::from(self.config.window_puts)),
                    ("percentile", Json::from(self.config.percentile)),
                    ("min_samples", Json::from(self.config.min_samples)),
                ]),
            ),
            (
                "completed",
                Json::obj([
                    ("put", Json::from(inner.completed_put)),
                    ("lookup", Json::from(inner.completed_lookup)),
                ]),
            ),
            ("windows_completed", Json::from(inner.windows_completed)),
            (
                "threshold",
                Json::obj([
                    (
                        "put",
                        Json::from(inner.put_latency.rolling().percentile(self.config.percentile)),
                    ),
                    (
                        "lookup",
                        Json::from(
                            inner.lookup_latency.rolling().percentile(self.config.percentile),
                        ),
                    ),
                ]),
            ),
            (
                "rolling",
                Json::obj([
                    ("put_latency", inner.put_latency.to_json()),
                    ("lookup_latency", inner.lookup_latency.to_json()),
                    ("queue_delay", inner.queue_delay.to_json()),
                ]),
            ),
            (
                "cumulative",
                Json::obj([
                    ("put_latency", inner.put_latency.cumulative().tail_json()),
                    ("lookup_latency", inner.lookup_latency.cumulative().tail_json()),
                    ("queue_delay", inner.queue_delay.cumulative().tail_json()),
                ]),
            ),
            ("blame", global_blame),
            ("dominant_phase", global_dominant.map_or(Json::Null, Json::from)),
            ("shards", shards),
            ("unsharded", unsharded),
        ])
    }

    /// Export headline gauges into `metrics` (`tail.*` →
    /// `lsm_tail_*` in the Prometheus exposition).
    pub fn export_gauges(&self, metrics: &Metrics) {
        let inner = self.lock();
        metrics.set_gauge("tail.windows_completed", inner.windows_completed as f64);
        metrics.set_gauge("tail.completed.put", inner.completed_put as f64);
        metrics.set_gauge("tail.completed.lookup", inner.completed_lookup as f64);
        let captured: usize = inner.puts.values().chain(inner.lookups.values()).map(Vec::len).sum();
        metrics.set_gauge("tail.exemplars", captured as f64);
        metrics.set_gauge("tail.queue_delay.count", inner.queue_delay.cumulative().count() as f64);
    }
}

/// Render one scope's (a shard's, or the unsharded bucket's) blame table,
/// dominant phase, and exemplar list.
fn scope_json(
    inner: &Inner,
    key: &Option<usize>,
    put_p99: f64,
    put_p999: f64,
) -> Vec<(String, Json)> {
    static EMPTY: Vec<ExemplarSpan> = Vec::new();
    let puts = inner.puts.get(key).unwrap_or(&EMPTY);
    let lookups = inner.lookups.get(key).unwrap_or(&EMPTY);
    let put_refs: Vec<&ExemplarSpan> = puts.iter().collect();
    let (blame_table, dominant) = blame(&put_refs, put_p99, put_p999);
    let mut exemplars: Vec<&ExemplarSpan> = puts.iter().chain(lookups.iter()).collect();
    exemplars.sort_by(|a, b| b.duration_us.cmp(&a.duration_us).then(a.start_us.cmp(&b.start_us)));
    vec![
        ("blame".to_string(), blame_table),
        ("dominant_phase".to_string(), dominant.map_or(Json::Null, Json::from)),
        ("exemplars".to_string(), Json::arr(exemplars.into_iter().map(ExemplarSpan::to_json))),
    ]
}

/// Aggregate put exemplars into a blame table sorted by total time,
/// descending (name ascending on ties), plus the dominant phase name.
/// `p99`/`p999` classify which exemplars count toward the tail shares.
fn blame(spans: &[&ExemplarSpan], p99: f64, p999: f64) -> (Json, Option<&'static str>) {
    #[derive(Default)]
    struct Acc {
        total: u64,
        count: u64,
        p99_total: u64,
        p999_total: u64,
    }
    let mut by: BTreeMap<&'static str, Acc> = BTreeMap::new();
    let (mut grand, mut grand99, mut grand999) = (0u64, 0u64, 0u64);
    for span in spans {
        let d = span.duration_us as f64;
        let (tail99, tail999) = (d >= p99, d >= p999);
        for (phase, us) in span.phases() {
            let acc = by.entry(phase).or_default();
            acc.total += us;
            acc.count += 1;
            if tail99 {
                acc.p99_total += us;
            }
            if tail999 {
                acc.p999_total += us;
            }
        }
        grand += span.duration_us;
        if tail99 {
            grand99 += span.duration_us;
        }
        if tail999 {
            grand999 += span.duration_us;
        }
    }
    let mut rows: Vec<(&'static str, Acc)> = by.into_iter().collect();
    rows.sort_by(|a, b| b.1.total.cmp(&a.1.total).then(a.0.cmp(b.0)));
    let dominant = rows.first().map(|(name, _)| *name);
    let share = |num: u64, den: u64| if den > 0 { num as f64 / den as f64 } else { 0.0 };
    let table = Json::arr(rows.iter().map(|(phase, acc)| {
        Json::obj([
            ("phase", Json::from(*phase)),
            ("total_us", Json::from(acc.total)),
            ("count", Json::from(acc.count)),
            ("share", Json::from(share(acc.total, grand))),
            ("share_p99", Json::from(share(acc.p99_total, grand99))),
            ("share_p999", Json::from(share(acc.p999_total, grand999))),
        ])
    }));
    (table, dominant)
}

impl EventSink for ExemplarSink {
    fn accept(&self, entry: &TraceEvent) {
        let mut inner = self.lock();
        match entry.kind {
            TraceEventKind::Begin { id, .. } => {
                inner.open.insert(id.as_u64(), Vec::new());
            }
            TraceEventKind::End { id, op, began_us } => {
                let Some(children) = inner.open.remove(&id.as_u64()) else { return };
                let span = ExemplarSpan {
                    op,
                    start_us: began_us,
                    duration_us: entry.at_us.saturating_sub(began_us),
                    children,
                };
                // After a close the entry's span is the parent.
                match entry.span.and_then(|p| inner.open.get_mut(&p.as_u64())) {
                    Some(siblings) => siblings.push(span),
                    None => self.on_root(&mut inner, span),
                }
            }
            TraceEventKind::Emit(ev) => self.on_event(&mut inner, &ev, entry.shard, entry.at_us),
        }
    }
}

const BLAME: Shape = Shape::Arr(&Shape::Obj(&[
    ("phase", Shape::Str),
    ("total_us", Shape::Num),
    ("count", Shape::Num),
    ("share", Shape::Num),
    ("share_p99", Shape::Num),
    ("share_p999", Shape::Num),
]));
const EXEMPLARS: Shape = Shape::Arr(&Shape::Obj(&[
    ("duration_us", Shape::Num),
    ("phases", Shape::Arr(&Shape::Obj(&[("us", Shape::Num)]))),
]));

/// Members and types of an `lsm-tail/v1` document.
const TAIL_SHAPE: Shape = Shape::Obj(&[
    ("schema", Shape::OneOf(&[TAIL_SCHEMA])),
    ("config", Shape::Obj(&[])),
    ("completed", Shape::Obj(&[("put", Shape::Num), ("lookup", Shape::Num)])),
    ("windows_completed", Shape::Int),
    ("threshold", Shape::Obj(&[])),
    ("rolling", Shape::Obj(&[])),
    ("cumulative", Shape::Obj(&[])),
    ("blame", BLAME),
    ("dominant_phase", Shape::Nullable(&Shape::Str)),
    (
        "shards",
        Shape::Arr(&Shape::Obj(&[
            ("shard", Shape::Num),
            ("blame", BLAME),
            ("exemplars", EXEMPLARS),
        ])),
    ),
    ("unsharded", Shape::Obj(&[("blame", BLAME), ("exemplars", EXEMPLARS)])),
]);

/// Check an `lsm-tail/v1` document. Returns every problem found (empty =
/// valid): schema string, required sections, blame-table shape, and —
/// the core invariant — each exemplar's phases summing to within 1% of
/// its measured duration.
pub fn validate_tail(doc: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    doc.check(&TAIL_SHAPE, "tail", &mut problems);
    let shards = doc.get("shards").items().iter().enumerate();
    let scopes = shards
        .map(|(i, shard)| (format!("shards[{i}]"), shard))
        .chain([("unsharded".to_string(), doc.get("unsharded")), ("tail".to_string(), doc)]);
    for (scope_name, scope) in scopes {
        for (i, row) in scope.get("blame").items().iter().enumerate() {
            for key in ["share", "share_p99", "share_p999"] {
                if row.get(key).as_f64().is_some_and(|x| !(0.0..=1.0).contains(&x)) {
                    problems.push(format!("{scope_name}.blame[{i}].{key} outside [0, 1]"));
                }
            }
        }
        for (i, exemplar) in scope.get("exemplars").items().iter().enumerate() {
            let Some(duration) = exemplar.get("duration_us").as_f64() else { continue };
            let phases = exemplar.get("phases").items();
            let sum: f64 = phases.iter().filter_map(|p| p.get("us").as_f64()).sum();
            // The acceptance bound: phases account for the whole measured
            // duration to within 1% (or 1 µs for sub-100 µs spans).
            let slack = (duration / 100.0).max(1.0);
            if (sum - duration).abs() > slack {
                problems.push(format!(
                    "{scope_name}.exemplars[{i}]: phases sum to {sum} but duration_us is \
                     {duration} (slack {slack})"
                ));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::trace::TickClock;
    use crate::SinkHandle;

    fn test_config() -> ExemplarConfig {
        ExemplarConfig { per_shard: 2, windows: 2, window_puts: 8, percentile: 0.5, min_samples: 4 }
    }

    /// An exemplar sink behind a tick-clock handle.
    fn attached(config: ExemplarConfig) -> (Arc<ExemplarSink>, SinkHandle) {
        let sink = Arc::new(ExemplarSink::new(config));
        let handle = SinkHandle::with_clock(Arc::new(TickClock::new())).and(sink.clone());
        (sink, handle)
    }

    #[test]
    fn spans_build_phase_partitions() {
        let (sink, handle) = attached(test_config());
        {
            let _put = handle.span(SpanOp::put().with_shard(1));
            let _lw = handle.span(SpanOp::lock_wait().with_shard(1));
        }
        assert_eq!(sink.completed_puts(), 1);
        assert_eq!(sink.captured(), 1);
        let doc = sink.report();
        assert!(validate_tail(&doc).is_empty(), "{:?}", validate_tail(&doc));
        // The tick clock advances once per reading: the put span covers 3
        // ticks (begin put, begin lw, end lw, end put ⇒ duration 3), the
        // lock wait 1; the residual is unattributed.
        let rendered = doc.render();
        assert!(rendered.contains("{\"phase\":\"lock_wait\",\"us\":1}"), "{rendered}");
        assert!(rendered.contains("{\"phase\":\"unattributed\",\"us\":2}"), "{rendered}");
        assert!(!rendered.contains("memtable_insert"), "{rendered}");
    }

    #[test]
    fn traced_roots_fold_children_and_blame_the_dominant_phase() {
        let (sink, handle) = attached(test_config());
        for _ in 0..3 {
            let _put = handle.span(SpanOp::put().with_shard(0));
            let bp = handle.span(SpanOp::backpressure_wait().with_shard(0));
            // Burn ticks inside the stall so it dominates the put.
            for block in 0..8 {
                handle.emit(Event::DeviceWrite { block });
            }
            drop(bp);
        }
        assert_eq!(sink.completed_puts(), 3);
        assert_eq!(sink.dominant_phase(), Some("backpressure_wait"));
        let doc = sink.report();
        assert!(validate_tail(&doc).is_empty(), "{:?}", validate_tail(&doc));
    }

    #[test]
    fn queue_delay_pairs_enqueue_with_job_start() {
        let (sink, handle) = attached(test_config());
        handle.emit(Event::FlushEnqueued { records: 10, backlog: 1 });
        handle.emit(Event::JobStart { shard: 0, queued: 0 });
        let doc = sink.report();
        assert_eq!(doc.get("cumulative").get("queue_delay").get("count").as_u64(), Some(1));
    }

    #[test]
    fn reservoir_keeps_the_slowest_and_windows_rotate() {
        let mut config = test_config();
        config.per_shard = 2;
        config.min_samples = 0;
        config.percentile = 0.0;
        let (sink, handle) = attached(config);
        for spin in [1u64, 5, 3, 9, 2] {
            let put = handle.span(SpanOp::put().with_shard(0));
            for block in 0..spin {
                handle.emit(Event::DeviceWrite { block });
            }
            drop(put);
        }
        assert_eq!(sink.completed_puts(), 5);
        // K=2 reservoir holds the two slowest (spin 5 and spin 9).
        let doc = sink.report();
        let rendered = doc.render();
        assert_eq!(sink.captured(), 2, "{rendered}");
        assert!(sink.windows_completed() == 0, "5 roots < window_puts=8");
        // Drive past a window boundary.
        for _ in 0..8 {
            let put = handle.span(SpanOp::put().with_shard(0));
            drop(put);
        }
        assert!(sink.windows_completed() >= 1);
    }

    #[test]
    fn reports_are_byte_identical_across_replays() {
        let run = || {
            let (sink, handle) = attached(test_config());
            for shard in [0usize, 1, 0] {
                let put = handle.span(SpanOp::put().with_shard(shard));
                let lw = handle.span(SpanOp::lock_wait().with_shard(shard));
                drop(lw);
                handle.emit(Event::FlushEnqueued { records: 4, backlog: 1 });
                handle.emit(Event::JobStart { shard, queued: 0 });
                drop(put);
            }
            sink.report().render()
        };
        let a = run();
        assert_eq!(a, run());
        let doc = Json::parse(&a).expect("report parses");
        assert!(validate_tail(&doc).is_empty());
        assert_eq!(doc.render(), a, "render(parse(render)) is the identity");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(!validate_tail(&Json::from(3u64)).is_empty());
        let doc = Json::obj([("schema", Json::from("lsm-tail/v0"))]);
        let problems = validate_tail(&doc);
        assert!(problems.iter().any(|p| p.contains("schema")), "{problems:?}");
        // An exemplar whose phases do not sum to its duration.
        let (sink, handle) = attached(test_config());
        {
            let _put = handle.span(SpanOp::put().with_shard(0));
            let _wait = handle.span(SpanOp::lock_wait().with_shard(0));
        }
        let good = sink.report().render();
        let bad = good.replacen("\"lock_wait\",\"us\":1}", "\"lock_wait\",\"us\":1000}", 1);
        assert_ne!(good, bad, "the exemplar's phase was not found: {good}");
        let problems = validate_tail(&Json::parse(&bad).unwrap());
        assert!(problems.iter().any(|p| p.contains("phases sum")), "{problems:?}");
    }

    #[test]
    fn export_gauges_publishes_tail_series() {
        let sink = ExemplarSink::new(test_config());
        let metrics = Metrics::new();
        sink.export_gauges(&metrics);
        let doc = metrics.to_json().render();
        assert!(doc.contains("tail.windows_completed"), "{doc}");
    }
}
