//! Tail-latency exemplars: the slowest complete span trees, kept whole.
//!
//! Histograms ([`crate::windowed`]) say *how slow* the p99.9 put was;
//! they cannot say *where the time went*. This module is the tail half of
//! the windowed engine ([`HealthSink`](crate::HealthSink)): it builds the
//! span tree of every request and keeps a bounded top-K reservoir of the
//! slowest *complete* `Put` / `Lookup` trees per shard — Prometheus-exemplar
//! style, except the exemplar is the whole causal tree, not just a trace id.
//!
//! A completed root's direct children partition its latency into *phases*
//! (`lock_wait`, `wal_append`, `memtable_insert`, `group_commit_wait`,
//! `backpressure_wait`, `cascade`, …); whatever the children leave
//! uncovered is `unattributed` for a put (frame encoding, anything no child
//! span covers) and the operation's own name otherwise. Phases therefore sum to
//! the root's duration *by construction* — exactly, under any monotonic
//! clock.
//!
//! The capture threshold is the rolling 95th percentile of the engine's
//! own put or get latency window, so the reservoir chases the *current*
//! tail rather than boot-time noise. Under
//! [`TickClock`](crate::TickClock) the whole pipeline — thresholds,
//! evictions, the rendered report — is deterministic and byte-identical
//! across replays.
//!
//! Scheduler queue delay rides along: the flat event stream already
//! carries `FlushEnqueued` (a memtable sealed) and `JobStart` (a worker
//! picked the shard up), and the engine pairs them FIFO per shard into a
//! `queue_delay` histogram on the same windows.
//!
//! [`HealthSink::tail_report`](crate::HealthSink::tail_report) renders
//! everything as a versioned `lsm-tail/v2` JSON document with a
//! critical-path *blame table*: per phase, its share of all captured put
//! latency and of the p99/p99.9 tail. Request counts, windows and put
//! latency are the health report's, not repeated here. [`validate_tail`]
//! checks any such document, including that every exemplar's phases sum
//! to within 1% of its duration.

use std::collections::{BTreeMap, HashMap, VecDeque};

use crate::json::{Json, Shape};
use crate::trace::{SpanKind, SpanOp, TraceEvent, TraceEventKind};
use crate::windowed::WindowedHistogram;
use crate::Event;

/// Schema identifier stamped into (and required from) tail reports.
pub const TAIL_SCHEMA: &str = "lsm-tail/v2";

/// The rolling percentile of its kind's latency window a request must
/// reach to be offered to the reservoir.
pub(crate) const CAPTURE_PERCENTILE: f64 = 0.95;

/// Every request is offered until this many of its kind have completed:
/// before that the percentile is noise.
pub(crate) const COLD_START: u64 = 32;

/// One completed span in a captured exemplar tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ExemplarSpan {
    /// What the span covered (kind, level, shard, …).
    pub(crate) op: SpanOp,
    /// Clock reading when the span opened.
    start_us: u64,
    /// Closing reading minus opening reading.
    pub(crate) duration_us: u64,
    /// Completed direct children, in completion order.
    children: Vec<ExemplarSpan>,
}

impl ExemplarSpan {
    /// Partition this span's duration into named phases: direct children
    /// aggregated by kind, plus a residual phase for the time no child
    /// covers (`unattributed` for a put, the kind's own name otherwise).
    /// The phase values always sum to `duration_us` exactly.
    fn phases(&self) -> Vec<(&'static str, u64)> {
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

/// Slowest root trees kept, per shard (`None` = unsharded).
type Reservoir = BTreeMap<Option<usize>, Vec<ExemplarSpan>>;

/// The tail half of the windowed engine's state: the trees being built,
/// the reservoirs, and scheduler queue delay. The engine owns the latency
/// windows the capture threshold is read from.
#[derive(Debug)]
pub(crate) struct Tail {
    /// Completed children of every span still open, by raw span id — the
    /// table trees are built in. What a span was and when it began comes
    /// back on its `End`.
    open: HashMap<u64, Vec<ExemplarSpan>>,
    /// FIFO enqueue timestamps per shard, paired with `JobStart`.
    pending_jobs: BTreeMap<Option<usize>, VecDeque<u64>>,
    pub(crate) queue_delay: WindowedHistogram,
    puts: Reservoir,
    lookups: Reservoir,
}

impl Tail {
    pub(crate) fn new(windows: usize) -> Self {
        Tail {
            open: HashMap::new(),
            pending_jobs: BTreeMap::new(),
            queue_delay: WindowedHistogram::new(windows),
            puts: BTreeMap::new(),
            lookups: BTreeMap::new(),
        }
    }

    /// Fold one stamped entry into the trees and the queue-delay pairs.
    /// Returns the span an `End` closed when it is a root
    /// ([`TraceEvent::closes_root`]), tree and all.
    pub(crate) fn on_entry(&mut self, entry: &TraceEvent) -> Option<ExemplarSpan> {
        match entry.kind {
            TraceEventKind::Begin { id, .. } => {
                self.open.insert(id.as_u64(), Vec::new());
                None
            }
            TraceEventKind::End { id, op, began_us } => {
                let span = ExemplarSpan {
                    op,
                    start_us: began_us,
                    duration_us: entry.at_us.saturating_sub(began_us),
                    children: self.open.remove(&id.as_u64()).unwrap_or_default(),
                };
                // After a close the entry's span is the parent. A span whose
                // parent began before the engine was attached is dropped.
                match entry.span.and_then(|p| self.open.get_mut(&p.as_u64())) {
                    Some(siblings) => {
                        siblings.push(span);
                        None
                    }
                    None => entry.closes_root().then_some(span),
                }
            }
            TraceEventKind::Emit(Event::FlushEnqueued { .. }) => {
                self.pending_jobs.entry(entry.shard).or_default().push_back(entry.at_us);
                None
            }
            TraceEventKind::Emit(Event::JobStart { shard, .. }) => {
                // Prefer the shard's own queue; an unsharded front-end
                // enqueues under `None` while its scheduler still names
                // the registration id.
                let mut pop = |key| self.pending_jobs.get_mut(&key).and_then(VecDeque::pop_front);
                if let Some(t) = pop(Some(shard)).or_else(|| pop(None)) {
                    self.queue_delay.record(entry.at_us.saturating_sub(t));
                }
                None
            }
            TraceEventKind::Emit(_) => None,
        }
    }

    /// Offer a completed `Put` or `Lookup` root to its shard's reservoir
    /// of `per_shard`: it evicts the fastest held tree only if it is
    /// strictly slower, so ties keep the earlier capture and the reservoir
    /// is deterministic under a tick clock.
    pub(crate) fn keep(&mut self, span: ExemplarSpan, per_shard: usize) {
        let reservoir =
            if span.op.kind == SpanKind::Put { &mut self.puts } else { &mut self.lookups };
        let slot = reservoir.entry(span.op.shard).or_default();
        if slot.len() < per_shard.max(1) {
            slot.push(span);
            return;
        }
        let mut min_i = 0;
        for (i, held) in slot.iter().enumerate() {
            if held.duration_us < slot[min_i].duration_us {
                min_i = i;
            }
        }
        if span.duration_us > slot[min_i].duration_us {
            slot[min_i] = span;
        }
    }

    /// The report's blame sections — `blame`, `dominant_phase`, `shards`,
    /// `unsharded` — with the tail shares cut at the put `p99` / `p999`.
    pub(crate) fn blame_sections(&self, p99: f64, p999: f64) -> Vec<(String, Json)> {
        let all_puts: Vec<&ExemplarSpan> = self.puts.values().flatten().collect();
        let (global_blame, global_dominant) = blame(&all_puts, p99, p999);
        let mut shard_keys: Vec<usize> =
            self.puts.keys().chain(self.lookups.keys()).filter_map(|k| *k).collect();
        shard_keys.sort_unstable();
        shard_keys.dedup();
        let shards = Json::arr(shard_keys.into_iter().map(|shard| {
            let mut pairs = vec![("shard".to_string(), Json::from(shard))];
            pairs.extend(self.scope_json(Some(shard), p99, p999));
            Json::Obj(pairs)
        }));
        vec![
            ("blame".to_string(), global_blame),
            ("dominant_phase".to_string(), global_dominant.map_or(Json::Null, Json::from)),
            ("shards".to_string(), shards),
            ("unsharded".to_string(), Json::Obj(self.scope_json(None, p99, p999))),
        ]
    }

    /// One scope's (a shard's, or the unsharded bucket's) blame table,
    /// dominant phase, and exemplar list.
    fn scope_json(&self, key: Option<usize>, p99: f64, p999: f64) -> Vec<(String, Json)> {
        let puts = self.puts.get(&key).map_or(&[][..], Vec::as_slice);
        let lookups = self.lookups.get(&key).map_or(&[][..], Vec::as_slice);
        let put_refs: Vec<&ExemplarSpan> = puts.iter().collect();
        let (blame_table, dominant) = blame(&put_refs, p99, p999);
        let mut exemplars: Vec<&ExemplarSpan> = puts.iter().chain(lookups).collect();
        exemplars
            .sort_by(|a, b| b.duration_us.cmp(&a.duration_us).then(a.start_us.cmp(&b.start_us)));
        vec![
            ("blame".to_string(), blame_table),
            ("dominant_phase".to_string(), dominant.map_or(Json::Null, Json::from)),
            ("exemplars".to_string(), Json::arr(exemplars.into_iter().map(ExemplarSpan::to_json))),
        ]
    }
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

/// Members and types of an `lsm-tail/v2` document.
const TAIL_SHAPE: Shape = Shape::Obj(&[
    ("schema", Shape::OneOf(&[TAIL_SCHEMA])),
    ("config", Shape::Obj(&[])),
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

/// Check an `lsm-tail/v2` document. Returns every problem found (empty =
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
    use crate::{HealthConfig, HealthSink, SinkHandle};

    fn test_config() -> HealthConfig {
        HealthConfig {
            window_ops: 8,
            windows: 2,
            exemplars_per_shard: 2,
            ..HealthConfig::default()
        }
    }

    /// The windowed engine behind a tick-clock handle.
    fn attached(config: HealthConfig) -> (Arc<HealthSink>, SinkHandle) {
        let sink = Arc::new(HealthSink::new(config).with_tail());
        let handle = SinkHandle::with_clock(Arc::new(TickClock::new())).and(sink.clone());
        (sink, handle)
    }

    /// Durations of every exemplar a tail report holds, slowest first per
    /// scope.
    fn captured(report: &Json) -> Vec<u64> {
        let scopes = report.get("shards").items().iter().chain([report.get("unsharded")]);
        let exemplars = scopes.flat_map(|scope| scope.get("exemplars").items().iter());
        exemplars.map(|x| x.get("duration_us").as_u64().unwrap()).collect()
    }

    /// One put on `shard` whose span encloses `writes` device writes: it
    /// lasts `writes + 1` ticks.
    fn put(handle: &SinkHandle, shard: usize, writes: u64) {
        let _put = handle.span(SpanOp::put().with_shard(shard));
        (0..writes).for_each(|block| handle.emit(Event::DeviceWrite { block }));
    }

    #[test]
    fn spans_build_phase_partitions() {
        let (sink, handle) = attached(test_config());
        {
            let _put = handle.span(SpanOp::put().with_shard(1));
            let _lw = handle.span(SpanOp::lock_wait().with_shard(1));
        }
        let doc = sink.tail_report().unwrap();
        assert!(validate_tail(&doc).is_empty(), "{:?}", validate_tail(&doc));
        assert_eq!(sink.report().get("cumulative").get("puts").as_u64(), Some(1));
        assert_eq!(captured(&doc), [3]);
        // The tick clock advances once per reading: the put span covers 3
        // ticks (begin put, begin lw, end lw, end put ⇒ duration 3), the
        // lock wait 1; the residual is unattributed.
        let rendered = doc.render();
        assert!(rendered.contains("{\"phase\":\"lock_wait\",\"us\":1}"), "{rendered}");
        assert!(rendered.contains("{\"phase\":\"unattributed\",\"us\":2}"), "{rendered}");
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
        let doc = sink.tail_report().unwrap();
        assert_eq!(sink.report().get("cumulative").get("puts").as_u64(), Some(3));
        assert_eq!(doc.get("dominant_phase").as_str(), Some("backpressure_wait"));
        assert!(validate_tail(&doc).is_empty(), "{:?}", validate_tail(&doc));
    }

    #[test]
    fn queue_delay_pairs_enqueue_with_job_start() {
        let (sink, handle) = attached(test_config());
        handle.emit(Event::FlushEnqueued { records: 10, backlog: 1 });
        handle.emit(Event::JobStart { shard: 0, queued: 0 });
        let doc = sink.tail_report().unwrap();
        assert_eq!(doc.get("cumulative").get("queue_delay").get("count").as_u64(), Some(1));
    }

    #[test]
    fn the_reservoir_keeps_the_slowest_roots_per_shard() {
        let (sink, handle) = attached(test_config());
        // All inside the cold start, so every one is offered.
        for writes in [1u64, 5, 3, 9, 2] {
            put(&handle, 0, writes);
        }
        // Two a shard: the puts that spanned 9 and 5 writes.
        assert_eq!(captured(&sink.tail_report().unwrap()), [10, 6]);
    }

    /// Past the cold start the capture threshold is the rolling percentile
    /// of the engine's own put window, on the windows the health report
    /// counts.
    #[test]
    fn the_threshold_reads_the_engines_put_window() {
        let (sink, handle) = attached(HealthConfig { window_ops: 64, ..test_config() });
        // The cold start, all slow: shard 0's reservoir of two keeps the
        // first two.
        (0..COLD_START).for_each(|_| put(&handle, 0, 6));
        assert_eq!(captured(&sink.tail_report().unwrap()), [7, 7]);
        // Past it a quick put on shard 1 falls under the rolling threshold
        // of 7 and is not kept, though its shard's reservoir is empty.
        put(&handle, 1, 0);
        let doc = sink.tail_report().unwrap();
        assert_eq!(captured(&doc), [7, 7]);
        assert_eq!(doc.get("threshold").get("put").as_f64(), Some(7.0));
        put(&handle, 1, 7);
        assert_eq!(captured(&sink.tail_report().unwrap()), [7, 7, 8]);
        // 199 device ops at window_ops = 64: three windows, counted once.
        assert_eq!(sink.windows_completed(), 3);
        assert_eq!(sink.report().get("windows_completed").as_u64(), Some(3));
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
            sink.tail_report().unwrap().render()
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
        let good = sink.tail_report().unwrap().render();
        let bad = good.replacen("\"lock_wait\",\"us\":1}", "\"lock_wait\",\"us\":1000}", 1);
        assert_ne!(good, bad, "the exemplar's phase was not found: {good}");
        let problems = validate_tail(&Json::parse(&bad).unwrap());
        assert!(problems.iter().any(|p| p.contains("phases sum")), "{problems:?}");
    }
}
