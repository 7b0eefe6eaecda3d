//! Flight recorder: a fixed-capacity ring buffer of recent events.
//!
//! A [`FlightRecorderSink`] retains the last N events, each with the
//! handle's timestamp and the span that caused it, plus an exact count of
//! how many older events the ring has dropped. It also tracks the stack of
//! spans still open — the "where was everyone when it happened" of a crash
//! dump. It is the black box a [post-mortem bundle] serializes after a
//! failure: cheap enough to leave attached in every run, bounded so it can
//! never blow up memory, and — like every sink — incapable of touching the
//! device image or the tree's own counters.
//!
//! The ring is a `Mutex<VecDeque>` with a small critical section (one
//! push, at most one pop); per-thread event order is preserved because
//! each entry is sequenced under the same lock that stores it.
//!
//! [post-mortem bundle]: crate::flight::FlightRecorderSink::to_json

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::json::Json;
use crate::trace::{SpanId, SpanOp, TraceEvent, TraceEventKind};
use crate::{Event, EventSink};

/// One retained event: the payload plus where and when it happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEntry {
    /// Global arrival index (0-based, never reset): `seq` of the oldest
    /// retained entry equals the number of dropped events.
    pub seq: u64,
    /// The handle's clock reading when the event fired.
    pub at_us: u64,
    /// Innermost open span when the event fired, if any.
    pub span: Option<SpanId>,
    /// The event itself.
    pub event: Event,
}

impl FlightEntry {
    /// Render as a JSON object (`span` is `null` outside any span).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seq", Json::from(self.seq)),
            ("at_us", Json::from(self.at_us)),
            ("span", self.span.map(|s| Json::from(s.as_u64())).unwrap_or(Json::Null)),
            ("event", self.event.to_json()),
        ])
    }
}

/// One span that was open (begun, not yet ended) at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenSpan {
    /// The span's id.
    pub id: SpanId,
    /// Its parent span, if nested.
    pub parent: Option<SpanId>,
    /// What the span covers.
    pub op: SpanOp,
}

impl OpenSpan {
    /// Render as a JSON object with the op's human-readable label.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::from(self.id.as_u64())),
            ("parent", self.parent.map(|p| Json::from(p.as_u64())).unwrap_or(Json::Null)),
            ("op", Json::from(self.op.label())),
            ("shard", self.op.shard.map(Json::from).unwrap_or(Json::Null)),
        ])
    }
}

#[derive(Default)]
struct FlightState {
    ring: VecDeque<FlightEntry>,
    total: u64,
    open: Vec<OpenSpan>,
}

/// Fixed-capacity ring buffer of the last N events (see module docs).
pub struct FlightRecorderSink {
    capacity: usize,
    state: Mutex<FlightState>,
}

impl std::fmt::Debug for FlightRecorderSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorderSink").field("capacity", &self.capacity).finish()
    }
}

impl FlightRecorderSink {
    /// A recorder retaining the last `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorderSink { capacity: capacity.max(1), state: Mutex::new(FlightState::default()) }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FlightState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn record(&self, at_us: u64, span: Option<SpanId>, event: Event) {
        let mut state = self.lock();
        let seq = state.total;
        state.total += 1;
        if state.ring.len() == self.capacity {
            state.ring.pop_front();
        }
        state.ring.push_back(FlightEntry { seq, at_us, span, event });
    }

    /// Events offered to the recorder since creation.
    pub fn total(&self) -> u64 {
        self.lock().total
    }

    /// Retained events (at most the capacity).
    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    /// Whether nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact number of events the ring has evicted to stay within
    /// capacity: `total() - len()`.
    pub fn dropped(&self) -> u64 {
        let state = self.lock();
        state.total - state.ring.len() as u64
    }

    /// Copy of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEntry> {
        self.lock().ring.iter().copied().collect()
    }

    /// The spans currently open (begun but not ended), outermost first.
    pub fn open_spans(&self) -> Vec<OpenSpan> {
        self.lock().open.clone()
    }

    /// Forget everything (events, drop count, open spans) — used between
    /// torture cycles so each cycle's dump stands alone.
    pub fn clear(&self) {
        let mut state = self.lock();
        state.ring.clear();
        state.total = 0;
        state.open.clear();
    }

    /// Render the recorder's whole state as one JSON object:
    /// `{capacity, total, dropped, open_spans: [...], events: [...]}`.
    pub fn to_json(&self) -> Json {
        let state = self.lock();
        let dropped = state.total - state.ring.len() as u64;
        Json::obj([
            ("capacity", Json::from(self.capacity)),
            ("total", Json::from(state.total)),
            ("dropped", Json::from(dropped)),
            ("open_spans", Json::arr(state.open.iter().map(OpenSpan::to_json))),
            ("events", Json::arr(state.ring.iter().map(FlightEntry::to_json))),
        ])
    }
}

impl EventSink for FlightRecorderSink {
    fn accept(&self, event: &TraceEvent) {
        match event.kind {
            TraceEventKind::Emit(ev) => self.record(event.at_us, event.span, ev),
            TraceEventKind::Begin { id, parent, op } => {
                self.lock().open.push(OpenSpan { id, parent, op });
            }
            TraceEventKind::End { id, .. } => {
                let mut state = self.lock();
                if let Some(pos) = state.open.iter().rposition(|s| s.id == id) {
                    state.open.remove(pos);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::trace::TickClock;
    use crate::SinkHandle;

    /// A recorder behind a tick-clock handle.
    fn attached(capacity: usize) -> (Arc<FlightRecorderSink>, SinkHandle) {
        let rec = Arc::new(FlightRecorderSink::new(capacity));
        let handle = SinkHandle::with_clock(Arc::new(TickClock::new())).and(rec.clone());
        (rec, handle)
    }

    #[test]
    fn ring_retains_last_n_and_counts_drops_exactly() {
        let (rec, handle) = attached(3);
        for block in 0..7u64 {
            handle.emit(Event::DeviceWrite { block });
        }
        assert_eq!(rec.total(), 7);
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 4);
        let entries = rec.snapshot();
        let blocks: Vec<u64> = entries
            .iter()
            .map(|e| match e.event {
                Event::DeviceWrite { block } => block,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(blocks, vec![4, 5, 6]);
        assert_eq!(entries[0].seq, 4, "oldest seq equals the drop count");
        assert_eq!((entries[0].at_us, entries[0].span), (4, None), "stamped, outside any span");
    }

    #[test]
    fn traced_entries_carry_span_ids_and_open_stack_tracks_begin_end() {
        let (rec, handle) = attached(16);
        let outer = handle.span(SpanOp::cascade());
        let inner = handle.span(SpanOp::merge(2, false));
        handle.emit(Event::DeviceWrite { block: 9 });

        let open = rec.open_spans();
        assert_eq!(open.len(), 2, "two spans open");
        assert_eq!(open[0].op.label(), "cascade");
        assert_eq!(open[1].op.label(), "merge L2 partial");
        assert_eq!(open[1].parent, Some(open[0].id), "inner span parented to outer");

        let entries = rec.snapshot();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].span, inner.id(), "event attributed to innermost span");
        assert_eq!(entries[0].at_us, 2, "stamped after the two span begins");

        drop(inner);
        assert_eq!(rec.open_spans().len(), 1);
        drop(outer);
        assert!(rec.open_spans().is_empty());
    }

    #[test]
    fn json_rendering_round_trips() {
        let (rec, handle) = attached(2);
        handle.emit(Event::CacheHit);
        handle.emit(Event::DeviceSync);
        handle.emit(Event::CacheMiss);
        let doc = rec.to_json().render();
        let parsed = Json::parse(&doc).expect("flight JSON parses");
        assert_eq!(parsed.get("capacity").as_u64(), Some(2));
        assert_eq!(parsed.get("total").as_u64(), Some(3));
        assert_eq!(parsed.get("dropped").as_u64(), Some(1));
        assert_eq!(parsed.get("events").items().len(), 2);
    }

    #[test]
    fn clear_resets_everything() {
        let (rec, handle) = attached(1);
        handle.emit(Event::CacheHit);
        handle.emit(Event::CacheHit);
        assert_eq!(rec.dropped(), 1);
        rec.clear();
        assert_eq!((rec.total(), rec.len(), rec.dropped()), (0, 0, 0));
        assert!(rec.open_spans().is_empty());
    }

    #[test]
    fn capacity_is_at_least_one() {
        let (rec, handle) = attached(0);
        handle.emit(Event::CacheHit);
        assert_eq!(rec.capacity(), 1);
        assert_eq!(rec.len(), 1);
    }
}
