//! Causal tracing: timed, nested spans layered over the flat event stream.
//!
//! The flat [`Event`] stream says *what* happened; it cannot
//! say *why*. A burst of `DeviceWrite`s could be a memtable flush, a
//! pairwise seam fix, or a whole-level compaction — the paper's cost models
//! (§III–§IV) are all about attributing exactly that. This module adds the
//! missing causal dimension:
//!
//! - A [`SpanOp`] describes one logical operation (a merge into L2, a WAL
//!   append, a lookup, ...).
//! - An attached [`SinkHandle`](crate::SinkHandle) allocates [`SpanId`]s,
//!   keeps a per-thread stack of open spans, and turns everything reported
//!   through it into [`TraceEvent`]s: span begins, span ends, and every
//!   plain event tagged with the innermost open span at the moment it
//!   fired.
//! - Timestamps come from an injectable [`Clock`]; the deterministic
//!   [`TickClock`] makes traces byte-identical across runs, so the
//!   torture/twin tests can assert on them.
//!
//! The exporter defined here, [`ChromeTraceSink`], writes Chrome
//! `trace_event` JSON, loadable in `chrome://tracing` or
//! <https://ui.perfetto.dev> (one pid per shard, one tid per operation
//! class).
//!
//! Spans must begin and end on the same thread (the [`SpanGuard`] returned
//! by [`SinkHandle::span`](crate::SinkHandle::span) enforces this by
//! construction: it is used locally and dropped where it was created).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;
use crate::metrics::Metrics;
use crate::{Event, EventSink};

/// Identifier of one span, unique among the handles that share a stamper
/// (a [`SinkHandle`](crate::SinkHandle), its clones and derivations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(u64);

impl SpanId {
    /// The raw id value.
    pub fn as_u64(&self) -> u64 {
        self.0
    }

    /// Build an id from a raw value (crate tests name expected ids).
    #[cfg(test)]
    pub(crate) fn from_raw(raw: u64) -> SpanId {
        SpanId(raw)
    }
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "span#{}", self.0)
    }
}

/// Source of monotonic microsecond timestamps for trace events.
///
/// Injectable so tests and reproducibility-sensitive runs can swap the wall
/// clock for a deterministic one.
pub trait Clock: Send + Sync {
    /// Current time in microseconds since an arbitrary (fixed) origin.
    fn now_us(&self) -> u64;
}

/// Real monotonic time, microseconds since clock creation.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock { origin: Instant::now() }
    }
}

impl WallClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Clock for WallClock {
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// Deterministic clock: every reading returns the next integer (0, 1, 2, …).
///
/// Traces taken with a `TickClock` are byte-identical across runs of the
/// same single-threaded workload, and "durations" become counts of clock
/// readings — still ordered, still nonzero for any span that contains
/// activity.
#[derive(Debug, Default)]
pub struct TickClock {
    ticks: AtomicU64,
}

impl TickClock {
    /// A clock starting at tick 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Clock for TickClock {
    fn now_us(&self) -> u64 {
        self.ticks.fetch_add(1, Ordering::Relaxed)
    }
}

/// Defines [`SpanKind`] together with `name()`, `lane()`, and `all()` from
/// one variant list, so the three can never drift apart: adding a variant
/// without a name and lane is a syntax error at the macro call, and a
/// variant accidentally dropped from the list simply does not exist.
macro_rules! span_kinds {
    ($($(#[$doc:meta])* $variant:ident => ($name:literal, $lane:literal)),+ $(,)?) => {
        /// The class of operation a span covers. Also determines the
        /// Chrome trace `tid` lane, so each class gets its own row in the
        /// viewer.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum SpanKind {
            $($(#[$doc])* $variant,)+
        }

        impl SpanKind {
            /// How many kinds exist (the `all()` array length).
            pub const COUNT: usize = [$($lane as u64),+].len();

            /// Short machine-readable name.
            pub const fn name(&self) -> &'static str {
                match self {
                    $(SpanKind::$variant => $name,)+
                }
            }

            /// Chrome trace `tid` lane for this class.
            pub const fn lane(&self) -> u64 {
                match self {
                    $(SpanKind::$variant => $lane,)+
                }
            }

            /// Every kind, in lane order (used to pre-register viewer
            /// lanes).
            pub const fn all() -> [SpanKind; Self::COUNT] {
                [$(SpanKind::$variant),+]
            }
        }
    };
}

span_kinds! {
    /// A whole merge cascade triggered by one request.
    Cascade => ("cascade", 1),
    /// Memtable extraction feeding a merge into L1.
    MemtableFlush => ("flush", 2),
    /// One merge into a target level.
    Merge => ("merge", 3),
    /// A pairwise seam fix after a partial merge.
    PairwiseFix => ("pairwise_fix", 4),
    /// A whole-level compaction.
    Compaction => ("compaction", 5),
    /// One WAL append (and its fsync, if any).
    WalAppend => ("wal_append", 6),
    /// A manifest checkpoint.
    Checkpoint => ("checkpoint", 7),
    /// Recovery (manifest load + WAL replay).
    Recovery => ("recovery", 8),
    /// A point lookup.
    Lookup => ("lookup", 9),
    /// A range scan.
    Scan => ("scan", 10),
    /// One front-end write, lock wait to ack. Its children partition the
    /// latency into the wait states below plus WAL append and (inline
    /// mode) cascade time; whatever they leave uncovered is reported as
    /// `unattributed` (frame encoding, memtable inserts, anything else).
    Put => ("put", 11),
    /// Time parked on the tree / shard write lock.
    LockWait => ("lock_wait", 12),
    /// Time parked in the group-commit rendezvous waiting for a leader's
    /// fsync to cover this request's WAL offset.
    GroupCommitWait => ("group_commit_wait", 13),
    /// Time stalled on backpressure: the sealed-memtable backlog at its
    /// bound, waiting for the scheduler to flush room free.
    BackpressureWait => ("backpressure_wait", 14),
}

/// Description of one span: its kind plus the attributes that name it.
///
/// Built by the emitting layer via the constructors; the sharded front-end
/// stamps the shard index onto every span of its inner trees with
/// [`SpanOp::with_shard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanOp {
    /// Operation class.
    pub kind: SpanKind,
    /// Paper-numbered level the operation targets, if any.
    pub level: Option<usize>,
    /// Whether a merge/flush was full (vs. a partial window), if relevant.
    pub full: Option<bool>,
    /// Shard the operation ran in (sharded front-end only).
    pub shard: Option<usize>,
}

impl SpanOp {
    /// A span with no level/full/shard attributes.
    pub fn new(kind: SpanKind) -> Self {
        SpanOp { kind, level: None, full: None, shard: None }
    }

    /// A merge into `target_level`.
    pub fn merge(target_level: usize, full: bool) -> Self {
        SpanOp { level: Some(target_level), full: Some(full), ..Self::new(SpanKind::Merge) }
    }

    /// A memtable flush (`full` = whole memtable vs. round-robin window).
    pub fn flush(full: bool) -> Self {
        SpanOp { full: Some(full), ..Self::new(SpanKind::MemtableFlush) }
    }

    /// A pairwise seam fix at `level`.
    pub fn pairwise_fix(level: usize) -> Self {
        SpanOp { level: Some(level), ..Self::new(SpanKind::PairwiseFix) }
    }

    /// A whole-level compaction of `level`.
    pub fn compaction(level: usize) -> Self {
        SpanOp { level: Some(level), ..Self::new(SpanKind::Compaction) }
    }

    /// A merge cascade.
    pub fn cascade() -> Self {
        Self::new(SpanKind::Cascade)
    }

    /// A WAL append.
    pub fn wal_append() -> Self {
        Self::new(SpanKind::WalAppend)
    }

    /// A manifest checkpoint.
    pub fn checkpoint() -> Self {
        Self::new(SpanKind::Checkpoint)
    }

    /// A recovery.
    pub fn recovery() -> Self {
        Self::new(SpanKind::Recovery)
    }

    /// A point lookup.
    pub fn lookup() -> Self {
        Self::new(SpanKind::Lookup)
    }

    /// A range scan.
    pub fn scan() -> Self {
        Self::new(SpanKind::Scan)
    }

    /// A front-end write (one put or delete, lock wait to ack).
    pub fn put() -> Self {
        Self::new(SpanKind::Put)
    }

    /// A wait on the tree / shard write lock.
    pub fn lock_wait() -> Self {
        Self::new(SpanKind::LockWait)
    }

    /// A wait in the group-commit rendezvous.
    pub fn group_commit_wait() -> Self {
        Self::new(SpanKind::GroupCommitWait)
    }

    /// A backpressure stall (sealed-memtable backlog at the bound).
    pub fn backpressure_wait() -> Self {
        Self::new(SpanKind::BackpressureWait)
    }

    /// The same op stamped with a shard index.
    pub fn with_shard(mut self, shard: usize) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Human-readable name, e.g. `"merge L2 full"` or `"lookup"`.
    pub fn label(&self) -> String {
        let mut s = self.kind.name().to_string();
        if let Some(level) = self.level {
            s.push_str(&format!(" L{level}"));
        }
        match self.full {
            Some(true) => s.push_str(" full"),
            Some(false) => s.push_str(" partial"),
            None => {}
        }
        s
    }
}

/// What a [`TraceEvent`] carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEventKind {
    /// A span opened.
    Begin {
        /// The new span.
        id: SpanId,
        /// The enclosing span open on the same thread, if any.
        parent: Option<SpanId>,
        /// What the span covers.
        op: SpanOp,
    },
    /// A span closed. Carries its op and its opening stamp, so no consumer
    /// keeps a table of open spans to learn what closed or how long it took.
    End {
        /// The closing span.
        id: SpanId,
        /// What the span covered.
        op: SpanOp,
        /// Clock reading of the matching `Begin` (its `at_us`).
        began_us: u64,
    },
    /// A plain event fired, attributed to the innermost open span (if any).
    Emit(Event),
}

/// One timestamped, span-attributed entry in the causal trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Clock reading when the entry was produced.
    pub at_us: u64,
    /// Innermost span open on the emitting thread. For `Begin` this is the
    /// parent (the new span is in the payload); for `End` it is the span
    /// that becomes current after the close.
    pub span: Option<SpanId>,
    /// Shard the entry belongs to: for `Begin` and `End` the span's own
    /// (`op.shard`); for `Emit` the shard of the innermost open span, or,
    /// outside any span, the tag of the handle that reported it
    /// ([`SinkHandle::with_shard`](crate::SinkHandle::with_shard)).
    pub shard: Option<usize>,
    /// The payload.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Whether this entry closes a *root* span: an `End` after which the
    /// thread has no span open. One front-end request is one root span, so
    /// this is the rule by which every consumer counts and times requests.
    pub fn closes_root(&self) -> bool {
        matches!(self.kind, TraceEventKind::End { .. }) && self.span.is_none()
    }
}

thread_local! {
    /// Per-thread stack of open spans — (stamper tag, id, shard) — tagged
    /// with the owning stamper so two unrelated handles alive on the same
    /// thread (common in tests) cannot see each other's spans as parents.
    static SPAN_STACK: RefCell<Vec<(u64, SpanId, Option<usize>)>> =
        const { RefCell::new(Vec::new()) };
}

static NEXT_STAMPER_TAG: AtomicU64 = AtomicU64::new(1);

/// What stamps: the clock and the span-id counter, shared by a handle,
/// its clones and every handle derived from it.
struct Stamper {
    tag: u64,
    clock: Arc<dyn Clock>,
    next_id: AtomicU64,
}

impl Stamper {
    /// The innermost span this stamper has open on the calling thread,
    /// and that span's shard.
    fn current_span(
        &self,
        stack: &[(u64, SpanId, Option<usize>)],
    ) -> Option<(SpanId, Option<usize>)> {
        stack.iter().rev().find(|&&(tag, ..)| tag == self.tag).map(|&(_, id, shard)| (id, shard))
    }
}

/// The attached state behind a [`SinkHandle`](crate::SinkHandle): the
/// shared stamper plus what this particular handle adds — its consumers,
/// its shard tag, its span-duration registry.
#[derive(Clone)]
pub(crate) struct Core {
    stamper: Arc<Stamper>,
    pub(crate) consumers: Vec<Arc<dyn EventSink>>,
    pub(crate) shard: Option<usize>,
    pub(crate) span_metrics: Option<Metrics>,
}

impl Core {
    pub(crate) fn new(clock: Arc<dyn Clock>) -> Core {
        let tag = NEXT_STAMPER_TAG.fetch_add(1, Ordering::Relaxed);
        Core {
            stamper: Arc::new(Stamper { tag, clock, next_id: AtomicU64::new(0) }),
            consumers: Vec::new(),
            shard: None,
            span_metrics: None,
        }
    }

    fn dispatch(&self, entry: TraceEvent) {
        for consumer in &self.consumers {
            consumer.accept(&entry);
        }
    }

    pub(crate) fn emit(&self, event: Event) {
        let at_us = self.stamper.clock.now_us();
        let current = SPAN_STACK.with(|s| self.stamper.current_span(&s.borrow()));
        let (span, shard) = match current {
            Some((id, shard)) => (Some(id), shard),
            None => (None, self.shard),
        };
        self.dispatch(TraceEvent { at_us, span, shard, kind: TraceEventKind::Emit(event) });
    }

    pub(crate) fn begin(core: &Arc<Core>, op: SpanOp) -> SpanGuard {
        let op = match core.shard {
            Some(shard) => op.with_shard(shard),
            None => op,
        };
        let stamper = &core.stamper;
        let id = SpanId(stamper.next_id.fetch_add(1, Ordering::Relaxed) + 1);
        let began_us = stamper.clock.now_us();
        let parent = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let parent = stamper.current_span(&stack).map(|(id, _)| id);
            stack.push((stamper.tag, id, op.shard));
            parent
        });
        core.dispatch(TraceEvent {
            at_us: began_us,
            span: parent,
            shard: op.shard,
            kind: TraceEventKind::Begin { id, parent, op },
        });
        SpanGuard(Some(OpenSpan { core: Arc::clone(core), id, op, began_us }))
    }

    fn end(&self, id: SpanId, op: SpanOp, began_us: u64) {
        let stamper = &self.stamper;
        let span = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) =
                stack.iter().rposition(|&(tag, open, _)| (tag, open) == (stamper.tag, id))
            {
                stack.remove(pos);
            }
            stamper.current_span(&stack).map(|(id, _)| id)
        });
        let at_us = stamper.clock.now_us();
        if let Some(metrics) = &self.span_metrics {
            metrics.observe(&format!("span.{}_us", op.kind.name()), at_us.saturating_sub(began_us));
        }
        let kind = TraceEventKind::End { id, op, began_us };
        self.dispatch(TraceEvent { at_us, span, shard: op.shard, kind });
    }
}

/// What a live [`SpanGuard`] carries: everything its end needs, so nobody
/// keeps a table of open spans on its behalf.
struct OpenSpan {
    core: Arc<Core>,
    id: SpanId,
    op: SpanOp,
    began_us: u64,
}

/// RAII handle for an open span; ends the span when dropped.
///
/// Obtained from [`SinkHandle::span`](crate::SinkHandle::span). When the
/// handle is disabled the guard is inert and costs one `Option` check on
/// drop.
#[must_use = "dropping the guard ends the span immediately"]
pub struct SpanGuard(Option<OpenSpan>);

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let open = self.0.as_ref();
        f.debug_struct("SpanGuard")
            .field("id", &open.map(|o| o.id))
            .field("op", &open.map(|o| o.op))
            .finish()
    }
}

impl SpanGuard {
    /// An inert guard (no sink, no span).
    pub fn disabled() -> Self {
        SpanGuard(None)
    }

    /// The span id, if a span was actually opened.
    pub fn id(&self) -> Option<SpanId> {
        self.0.as_ref().map(|open| open.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.0.take() {
            open.core.end(open.id, open.op, open.began_us);
        }
    }
}

/// Device and cache activity attributed to one open span.
#[derive(Default)]
struct OpenChromeSpan {
    writes: u64,
    reads: u64,
    trims: u64,
    cache_hits: u64,
    cache_misses: u64,
}

struct ChromeState {
    out: Box<dyn Write + Send>,
    wrote_any: bool,
    finished: bool,
    open: HashMap<u64, OpenChromeSpan>,
    named_pids: HashSet<u64>,
}

/// Writes spans as Chrome `trace_event` JSON (the "JSON array format").
///
/// Open the result in `chrome://tracing` or <https://ui.perfetto.dev>.
/// Each shard becomes a process (`pid` = shard + 1; 0 for an unsharded
/// tree) and each [`SpanKind`] a thread lane within it, so merges, WAL
/// appends, and lookups stack into separate rows. Every completed span is
/// one `"ph": "X"` entry whose `args` carry the device and cache activity
/// attributed to it.
///
/// Entries stream to the writer as spans close; call
/// [`ChromeTraceSink::finish`] (or drop the sink) to close the JSON array.
pub struct ChromeTraceSink {
    state: Mutex<ChromeState>,
}

impl std::fmt::Debug for ChromeTraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ChromeTraceSink")
    }
}

impl ChromeTraceSink {
    /// Stream to the given writer. Wrap slow targets in a `BufWriter`.
    pub fn new(out: impl Write + Send + 'static) -> Self {
        ChromeTraceSink {
            state: Mutex::new(ChromeState {
                out: Box::new(out),
                wrote_any: false,
                finished: false,
                open: HashMap::new(),
                named_pids: HashSet::new(),
            }),
        }
    }

    /// Stream to a file at `path`, created or truncated.
    pub fn to_file(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(std::io::BufWriter::new(file)))
    }

    /// Close the JSON array and flush. Idempotent; also runs on drop.
    pub fn finish(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        Self::finish_locked(&mut state);
    }

    fn finish_locked(state: &mut ChromeState) {
        if state.finished {
            return;
        }
        if !state.wrote_any {
            let _ = state.out.write_all(b"[");
        }
        let _ = state.out.write_all(b"\n]\n");
        let _ = state.out.flush();
        state.finished = true;
    }

    fn write_entry(state: &mut ChromeState, entry: &Json) {
        if state.finished {
            return;
        }
        let prefix = if state.wrote_any { ",\n" } else { "[\n" };
        state.wrote_any = true;
        let _ = state.out.write_all(prefix.as_bytes());
        let _ = state.out.write_all(entry.render().as_bytes());
    }

    fn pid_of(op: &SpanOp) -> u64 {
        op.shard.map(|s| s as u64 + 1).unwrap_or(0)
    }

    fn ensure_names(state: &mut ChromeState, op: &SpanOp) {
        let pid = Self::pid_of(op);
        if !state.named_pids.insert(pid) {
            return;
        }
        let name = match op.shard {
            Some(s) => format!("shard {s}"),
            None => "lsm".to_string(),
        };
        let entry = Json::obj([
            ("name", Json::from("process_name")),
            ("ph", Json::from("M")),
            ("pid", Json::from(pid)),
            ("tid", Json::from(0u64)),
            ("args", Json::obj([("name", Json::from(name))])),
        ]);
        Self::write_entry(state, &entry);
        // Pre-register every lane in lane order on the pid's first
        // sighting. `SpanKind::all()` is derived from the same variant
        // list as `lane()`, so a new kind cannot miss its viewer row.
        for kind in SpanKind::all() {
            let entry = Json::obj([
                ("name", Json::from("thread_name")),
                ("ph", Json::from("M")),
                ("pid", Json::from(pid)),
                ("tid", Json::from(kind.lane())),
                ("args", Json::obj([("name", Json::from(kind.name()))])),
            ]);
            Self::write_entry(state, &entry);
        }
    }
}

impl EventSink for ChromeTraceSink {
    fn accept(&self, event: &TraceEvent) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        match event.kind {
            TraceEventKind::Begin { id, op, .. } => {
                Self::ensure_names(&mut state, &op);
                state.open.insert(id.as_u64(), OpenChromeSpan::default());
            }
            TraceEventKind::Emit(ev) => {
                let Some(id) = event.span else { return };
                let Some(open) = state.open.get_mut(&id.as_u64()) else { return };
                match ev {
                    Event::DeviceWrite { .. } => open.writes += 1,
                    Event::DeviceRead { .. } => open.reads += 1,
                    Event::DeviceTrim { .. } => open.trims += 1,
                    Event::CacheHit => open.cache_hits += 1,
                    Event::CacheMiss => open.cache_misses += 1,
                    _ => {}
                }
            }
            TraceEventKind::End { id, op, began_us } => {
                let Some(open) = state.open.remove(&id.as_u64()) else { return };
                let mut args: Vec<(String, Json)> = Vec::new();
                if let Some(level) = op.level {
                    args.push(("level".into(), Json::from(level)));
                }
                if let Some(full) = op.full {
                    args.push(("full".into(), Json::from(full)));
                }
                args.push(("writes".into(), Json::from(open.writes)));
                args.push(("reads".into(), Json::from(open.reads)));
                args.push(("trims".into(), Json::from(open.trims)));
                args.push(("cache_hits".into(), Json::from(open.cache_hits)));
                args.push(("cache_misses".into(), Json::from(open.cache_misses)));
                let entry = Json::obj([
                    ("name", Json::from(op.label())),
                    ("cat", Json::from(op.kind.name())),
                    ("ph", Json::from("X")),
                    ("ts", Json::from(began_us)),
                    ("dur", Json::from(event.at_us.saturating_sub(began_us))),
                    ("pid", Json::from(Self::pid_of(&op))),
                    ("tid", Json::from(op.kind.lane())),
                    ("args", Json::Obj(args)),
                ]);
                Self::write_entry(&mut state, &entry);
            }
        }
    }
}

impl Drop for ChromeTraceSink {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SinkHandle, VecSink};

    fn ticking(buffer: Arc<VecSink>) -> SinkHandle {
        SinkHandle::with_clock(Arc::new(TickClock::new())).and(buffer)
    }

    #[test]
    fn spans_nest_and_tag_events() {
        let buffer = Arc::new(VecSink::new());
        let handle = ticking(buffer.clone());

        let outer = handle.span(SpanOp::cascade());
        let outer_id = outer.id().unwrap();
        handle.emit(Event::DeviceWrite { block: 1 });
        let inner = handle.span(SpanOp::merge(2, false));
        let inner_id = inner.id().unwrap();
        handle.emit(Event::DeviceWrite { block: 2 });
        drop(inner);
        handle.emit(Event::DeviceWrite { block: 3 });
        drop(outer);
        handle.emit(Event::DeviceSync);

        let events = buffer.entries();
        let spans: Vec<Option<SpanId>> = events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Emit(_) => Some(e.span),
                _ => None,
            })
            .collect();
        assert_eq!(spans, vec![Some(outer_id), Some(inner_id), Some(outer_id), None]);

        let parents: Vec<Option<SpanId>> = events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Begin { parent, .. } => Some(parent),
                _ => None,
            })
            .collect();
        assert_eq!(parents, vec![None, Some(outer_id)]);
    }

    #[test]
    fn tick_clock_makes_traces_deterministic() {
        let run = || {
            let buffer = Arc::new(VecSink::new());
            let handle = ticking(buffer.clone());
            let guard = handle.span(SpanOp::merge(1, true));
            handle.emit(Event::DeviceWrite { block: 7 });
            drop(guard);
            buffer.entries()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unrelated_handles_on_one_thread_do_not_adopt_each_others_spans() {
        let (a, b) = (Arc::new(VecSink::new()), Arc::new(VecSink::new()));
        let (ha, hb) = (ticking(a.clone()), ticking(b.clone()));
        let _outer = ha.span(SpanOp::cascade());
        hb.emit(Event::CacheHit);
        let inner = hb.span(SpanOp::lookup());
        assert_eq!(b.entries()[0].span, None, "a's span is not b's context");
        assert!(matches!(b.entries()[1].kind, TraceEventKind::Begin { parent: None, .. }));
        drop(inner);
        ha.emit(Event::CacheMiss);
        assert!(a.entries()[1].span.is_some(), "a still sees its own open span");
    }

    #[test]
    fn out_of_order_drops_leave_the_stack_consistent() {
        let buffer = Arc::new(VecSink::new());
        let handle = ticking(buffer.clone());
        let outer = handle.span(SpanOp::cascade());
        let inner = handle.span(SpanOp::merge(1, true));
        let inner_id = inner.id();
        drop(outer);
        handle.emit(Event::CacheHit);
        drop(inner);
        handle.emit(Event::CacheMiss);
        let spans: Vec<Option<SpanId>> = buffer
            .entries()
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Emit(_)))
            .map(|e| e.span)
            .collect();
        assert_eq!(spans, vec![inner_id, None]);
    }

    #[test]
    fn span_durations_feed_metrics() {
        let metrics = Metrics::new();
        let handle = SinkHandle::with_clock(Arc::new(TickClock::new()))
            .and(Arc::new(crate::NullSink))
            .time_spans_into(metrics.clone());
        let guard = handle.span(SpanOp::merge(3, true));
        handle.emit(Event::DeviceWrite { block: 1 });
        drop(guard);
        let h = metrics.histogram("span.merge_us").unwrap();
        assert_eq!(h.count(), 1);
        assert!(h.max() >= 1, "tick clock advances inside the span");
    }

    #[test]
    fn chrome_sink_writes_valid_complete_events() {
        #[derive(Clone, Default)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buffer = Shared::default();
        let chrome = Arc::new(ChromeTraceSink::new(buffer.clone()));
        let handle = SinkHandle::with_clock(Arc::new(TickClock::new())).and(chrome.clone());
        let guard = handle.span(SpanOp::merge(2, false).with_shard(1));
        handle.emit(Event::DeviceWrite { block: 4 });
        handle.emit(Event::DeviceRead { block: 5 });
        drop(guard);
        chrome.finish();

        let text = String::from_utf8(buffer.0.lock().unwrap().clone()).unwrap();
        let doc = Json::parse(&text).expect("chrome trace parses");
        let complete: Vec<&Json> =
            doc.items().iter().filter(|e| e.get("ph").as_str() == Some("X")).collect();
        assert_eq!(complete.len(), 1);
        let span = complete[0];
        assert_eq!(span.get("name").as_str(), Some("merge L2 partial"));
        assert_eq!(span.get("pid").as_u64(), Some(2), "shard 1 maps to pid 2");
        assert_eq!((span.get("ts").as_u64(), span.get("dur").as_u64()), (Some(0), Some(3)));
        assert_eq!(span.get("args").get("writes").as_u64(), Some(1));
        assert_eq!(span.get("args").get("reads").as_u64(), Some(1));
    }

    #[test]
    fn span_op_labels() {
        assert_eq!(SpanOp::merge(2, true).label(), "merge L2 full");
        assert_eq!(SpanOp::flush(false).label(), "flush partial");
        assert_eq!(SpanOp::lookup().label(), "lookup");
        assert_eq!(SpanOp::pairwise_fix(3).label(), "pairwise_fix L3");
    }
}
