//! Observability for the LSM-on-SSD stack.
//!
//! Every layer of the stack — the simulated SSD, its block cache, the LSM
//! tree's merge machinery, the WAL — reports what it does through a
//! [`SinkHandle`] (or a [`SinkCell`] where interior mutability is needed):
//! plain [`Event`]s with `emit_with`, timed nested spans with `span`. When
//! nothing is attached either call is a single branch on an `Option`, and
//! the closure that would build the event is never run, so disabled
//! observability costs nothing measurable.
//!
//! An attached handle is the one place that *stamps*: it reads the clock,
//! issues span ids, keeps the per-thread stack of open spans, and hands
//! every resulting [`TraceEvent`] — `Begin`, `End` or `Emit`, each with its
//! timestamp, the innermost open span and its shard — to each attached
//! [`EventSink`], the one consumer trait. See [`trace`] for the span vocabulary.
//!
//! Provided sinks:
//!
//! - [`NullSink`] — discards everything (useful to prove the absence of
//!   observer effects).
//! - [`VecSink`] — buffers entries in order for tests and offline analysis.
//! - [`StreamSink`] — one JSON object per event, one per line, to any
//!   `Write` target.
//! - [`MetricsSink`] — folds events into a shared [`Metrics`] registry of
//!   counters and histograms ([`Metrics::render_prometheus`] is its
//!   Prometheus text form).
//! - [`ChromeTraceSink`], [`TimeseriesSink`] — Chrome-trace and
//!   amplification time-series exporters.
//! - [`HealthSink`], [`ExemplarSink`], [`FlightRecorderSink`] — the
//!   windowed health engine, tail-latency exemplars and the flight
//!   recorder.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exemplar;
pub mod flight;
pub mod health;
pub mod json;
pub mod metrics;
pub mod trace;
pub mod windowed;

pub use exemplar::{validate_tail, ExemplarConfig, ExemplarSink, ExemplarSpan, TAIL_SCHEMA};
pub use flight::{FlightEntry, FlightRecorderSink, OpenSpan};
pub use health::{
    validate_health, HealthConfig, HealthDetector, HealthSink, HealthState, SloTracker,
    TransitionRecord,
};
pub use json::{Json, Shape};
pub use metrics::{Histogram, Metrics};
pub use trace::{
    ChromeTraceSink, Clock, SpanGuard, SpanId, SpanKind, SpanOp, TickClock, TimeseriesSink,
    TraceEvent, TraceEventKind, WallClock,
};
pub use windowed::{RateWindow, WindowedHistogram};

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One observable action somewhere in the stack.
///
/// Events are small `Copy` values: building one allocates nothing, so
/// emitting is cheap even with a sink attached. Levels use the paper's
/// numbering (`L0` is the memtable; `L1..=Lh` live on the device).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A block was read from the device.
    DeviceRead {
        /// Raw block id.
        block: u64,
    },
    /// A block was written to the device.
    DeviceWrite {
        /// Raw block id.
        block: u64,
    },
    /// A block was trimmed (erased) on the device.
    DeviceTrim {
        /// Raw block id.
        block: u64,
    },
    /// The device was synced.
    DeviceSync,
    /// A cache lookup hit.
    CacheHit,
    /// A cache lookup missed.
    CacheMiss,
    /// An entry was evicted to make room.
    CacheEviction,
    /// Records were extracted from the memtable to feed a merge into L1.
    MemtableFlush {
        /// Number of records extracted.
        records: u64,
        /// Whether the whole memtable was flushed (`true`) or only a
        /// round-robin window of it.
        full: bool,
    },
    /// The merge policy chose what to merge into `target_level`.
    PolicyDecision {
        /// Paper-numbered target level of the prospective merge.
        target_level: usize,
        /// `true` for a full merge, `false` for a partial (windowed) one.
        full: bool,
        /// Blocks the policy predicts the merge will write (source blocks
        /// plus overlapping target blocks). Compared against the `writes`
        /// field of the matching [`Event::MergeFinish`] to evaluate the
        /// policy's cost model.
        predicted_writes: u64,
    },
    /// A merge into `target_level` is about to run.
    MergeStart {
        /// Paper-numbered target level.
        target_level: usize,
        /// `true` for a full merge.
        full: bool,
    },
    /// A merge into `target_level` completed.
    MergeFinish {
        /// Paper-numbered target level.
        target_level: usize,
        /// `true` for a full merge.
        full: bool,
        /// Records consumed from the source level.
        src_records: u64,
        /// Blocks written into the target level.
        writes: u64,
        /// Target blocks read to perform the merge.
        reads: u64,
        /// Blocks preserved (re-linked without rewriting).
        preserved: u64,
        /// Largest key that participated, used by round-robin cursors.
        max_key: u64,
    },
    /// A seam between two adjacent blocks violated the pairwise waste
    /// constraint and was rewritten.
    PairwiseFix {
        /// Paper-numbered level where the seam was fixed.
        level: usize,
        /// Blocks written by the fix.
        writes: u64,
        /// Blocks read by the fix.
        reads: u64,
    },
    /// A level exceeded its waste bound and was compacted in place.
    Compaction {
        /// Paper-numbered level that was compacted.
        level: usize,
        /// Blocks written by the compaction.
        writes: u64,
    },
    /// The tree grew a new deepest level.
    LevelAdded {
        /// Height of the tree after growth (number of on-device levels).
        new_height: usize,
    },
    /// A request was appended to the write-ahead log.
    WalAppend {
        /// Encoded bytes appended (header + payload).
        bytes: u64,
    },
    /// The tree state was checkpointed to a manifest.
    Checkpoint {
        /// Live blocks referenced by the manifest.
        live_blocks: u64,
    },
    /// A tree was recovered from a manifest plus WAL replay.
    Recovery {
        /// WAL requests replayed on top of the checkpoint.
        replayed: u64,
    },
    /// A scripted fault fired in the fault-injection device.
    FaultInjected {
        /// What kind of fault fired.
        kind: FaultEventKind,
        /// Device-op index (reads + writes + trims + syncs) at which it fired.
        op: u64,
    },
    /// A transient device error is being retried by the storage layer.
    RetryAttempt {
        /// 1-based retry attempt number (the initial try is attempt 0).
        attempt: u32,
    },
    /// A block failed its integrity check and was quarantined (its id is
    /// never reused; its key range may be lost).
    BlockQuarantined {
        /// Raw block id.
        block: u64,
    },
    /// A quarantined block was dropped from its level during a merge or
    /// compaction, so the structure no longer references it (read repair).
    ReadRepair {
        /// Raw block id.
        block: u64,
    },
    /// A request was routed to a shard of a sharded front-end.
    ShardRouted {
        /// Zero-based shard index the key hashed to.
        shard: usize,
    },
    /// A decision ledger reconciled one merge decision against its actual
    /// cost: emitted right after the matching [`Event::MergeFinish`], once
    /// the candidate set, the chosen candidate's predicted cost, the best
    /// candidate's predicted cost (hindsight optimum under the shared cost
    /// model), and the realized write count are all known.
    LedgerOutcome {
        /// Paper-numbered target level of the decided merge.
        target_level: usize,
        /// `true` if the chosen candidate was the full merge.
        full: bool,
        /// Candidates the ledger enumerated (every window plus full).
        candidates: usize,
        /// Predicted writes of the chosen candidate.
        predicted: u64,
        /// Smallest predicted writes over all candidates.
        best_predicted: u64,
        /// Blocks actually written, from the matching merge.
        actual: u64,
    },
    /// The active memtable overflowed, was sealed, and was handed to the
    /// merge scheduler as an immutable memtable awaiting a background
    /// flush. Under `Scheduler::Inline` the flush still runs on the
    /// triggering request, so this event never fires there — inline trees
    /// emit [`Event::MemtableFlush`] directly.
    FlushEnqueued {
        /// Records in the sealed memtable.
        records: u64,
        /// Immutable memtables pending flush, this one included.
        backlog: usize,
    },
    /// A background worker picked up a maintenance job for one tree/shard.
    /// The job runs merge steps (each bracketed by the usual
    /// merge/flush spans and `MergeStart`/`MergeFinish` events) until the
    /// target is quiescent.
    JobStart {
        /// Zero-based shard (or tree) index the job targets.
        shard: usize,
        /// Jobs still queued after this one was taken.
        queued: usize,
    },
    /// Admission control stalled a writer: the active memtable is full and
    /// the immutable-memtable backlog is at its bound, so the write waits
    /// for a background flush to free a slot.
    Backpressure {
        /// Zero-based shard (or tree) index the stalled write targeted.
        shard: usize,
        /// Immutable memtables pending at stall time.
        backlog: usize,
    },
}

/// The kind of fault a fault-injection device fired, as reported by
/// [`Event::FaultInjected`]. Silent faults (torn writes, bit flips,
/// dropped syncs) return success to the caller — the event is the only
/// trace they leave until the damage surfaces later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEventKind {
    /// A read returned a transient injected error.
    ReadError,
    /// A write returned a transient injected error.
    WriteError,
    /// A sync returned a transient injected error.
    SyncError,
    /// A sync reported success without making data durable.
    DroppedSync,
    /// A stored frame was silently bit-flipped.
    BitFlip,
    /// Only a prefix of a written frame landed.
    TornWrite,
    /// Power was cut: unsynced writes discarded, device off.
    PowerCut,
}

impl FaultEventKind {
    /// Short machine-readable name (used in JSON rendering).
    pub fn name(&self) -> &'static str {
        match self {
            FaultEventKind::ReadError => "read_error",
            FaultEventKind::WriteError => "write_error",
            FaultEventKind::SyncError => "sync_error",
            FaultEventKind::DroppedSync => "dropped_sync",
            FaultEventKind::BitFlip => "bit_flip",
            FaultEventKind::TornWrite => "torn_write",
            FaultEventKind::PowerCut => "power_cut",
        }
    }
}

impl Event {
    /// Short machine-readable name of the event kind (the JSON `type` tag).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::DeviceRead { .. } => "device_read",
            Event::DeviceWrite { .. } => "device_write",
            Event::DeviceTrim { .. } => "device_trim",
            Event::DeviceSync => "device_sync",
            Event::CacheHit => "cache_hit",
            Event::CacheMiss => "cache_miss",
            Event::CacheEviction => "cache_eviction",
            Event::MemtableFlush { .. } => "memtable_flush",
            Event::PolicyDecision { .. } => "policy_decision",
            Event::MergeStart { .. } => "merge_start",
            Event::MergeFinish { .. } => "merge_finish",
            Event::PairwiseFix { .. } => "pairwise_fix",
            Event::Compaction { .. } => "compaction",
            Event::LevelAdded { .. } => "level_added",
            Event::WalAppend { .. } => "wal_append",
            Event::Checkpoint { .. } => "checkpoint",
            Event::Recovery { .. } => "recovery",
            Event::FaultInjected { .. } => "fault_injected",
            Event::RetryAttempt { .. } => "retry_attempt",
            Event::BlockQuarantined { .. } => "block_quarantined",
            Event::ReadRepair { .. } => "read_repair",
            Event::ShardRouted { .. } => "shard_routed",
            Event::LedgerOutcome { .. } => "ledger_outcome",
            Event::FlushEnqueued { .. } => "flush_enqueued",
            Event::JobStart { .. } => "job_start",
            Event::Backpressure { .. } => "backpressure",
        }
    }

    /// Render as a JSON object with a `type` tag plus the event's fields.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![("type".into(), Json::from(self.kind()))];
        let mut put = |k: &str, v: Json| pairs.push((k.to_string(), v));
        match *self {
            Event::DeviceRead { block }
            | Event::DeviceWrite { block }
            | Event::DeviceTrim { block } => put("block", Json::from(block)),
            Event::DeviceSync | Event::CacheHit | Event::CacheMiss | Event::CacheEviction => {}
            Event::MemtableFlush { records, full } => {
                put("records", Json::from(records));
                put("full", Json::from(full));
            }
            Event::PolicyDecision { target_level, full, predicted_writes } => {
                put("target_level", Json::from(target_level));
                put("full", Json::from(full));
                put("predicted_writes", Json::from(predicted_writes));
            }
            Event::MergeStart { target_level, full } => {
                put("target_level", Json::from(target_level));
                put("full", Json::from(full));
            }
            Event::MergeFinish {
                target_level,
                full,
                src_records,
                writes,
                reads,
                preserved,
                max_key,
            } => {
                put("target_level", Json::from(target_level));
                put("full", Json::from(full));
                put("src_records", Json::from(src_records));
                put("writes", Json::from(writes));
                put("reads", Json::from(reads));
                put("preserved", Json::from(preserved));
                put("max_key", Json::from(max_key));
            }
            Event::PairwiseFix { level, writes, reads } => {
                put("level", Json::from(level));
                put("writes", Json::from(writes));
                put("reads", Json::from(reads));
            }
            Event::Compaction { level, writes } => {
                put("level", Json::from(level));
                put("writes", Json::from(writes));
            }
            Event::LevelAdded { new_height } => put("new_height", Json::from(new_height)),
            Event::WalAppend { bytes } => put("bytes", Json::from(bytes)),
            Event::Checkpoint { live_blocks } => put("live_blocks", Json::from(live_blocks)),
            Event::Recovery { replayed } => put("replayed", Json::from(replayed)),
            Event::FaultInjected { kind, op } => {
                put("kind", Json::from(kind.name()));
                put("op", Json::from(op));
            }
            Event::RetryAttempt { attempt } => put("attempt", Json::from(u64::from(attempt))),
            Event::BlockQuarantined { block } | Event::ReadRepair { block } => {
                put("block", Json::from(block))
            }
            Event::ShardRouted { shard } => put("shard", Json::from(shard)),
            Event::LedgerOutcome {
                target_level,
                full,
                candidates,
                predicted,
                best_predicted,
                actual,
            } => {
                put("target_level", Json::from(target_level));
                put("full", Json::from(full));
                put("candidates", Json::from(candidates));
                put("predicted", Json::from(predicted));
                put("best_predicted", Json::from(best_predicted));
                put("actual", Json::from(actual));
            }
            Event::FlushEnqueued { records, backlog } => {
                put("records", Json::from(records));
                put("backlog", Json::from(backlog));
            }
            Event::JobStart { shard, queued } => {
                put("shard", Json::from(shard));
                put("queued", Json::from(queued));
            }
            Event::Backpressure { shard, backlog } => {
                put("shard", Json::from(shard));
                put("backlog", Json::from(backlog));
            }
        }
        Json::Obj(pairs)
    }
}

/// Consumer of the stamped event stream — the one trait every sink
/// implements.
///
/// A [`SinkHandle`] stamps whatever the stack reports — a span opening, a
/// span closing, a plain [`Event`] — with its clock and the innermost span
/// open on the reporting thread, and hands each [`TraceEvent`] to every
/// consumer attached to it, in attachment order. What a consumer may
/// assume:
///
/// - it sees every entry exactly once, with the same id, stamp and span
///   every other consumer of the handle sees;
/// - entries produced by one thread arrive in that thread's program
///   order, so a span's `Begin` precedes everything attributed to it and
///   its `End` follows, and spans of one thread nest;
/// - entries of different threads interleave in no particular order
///   (`accept` is called inline on whichever thread reports, possibly
///   concurrently — implementations lock for themselves).
///
/// Consumers that do not care about causality match on
/// [`TraceEventKind::Emit`] and ignore the rest.
pub trait EventSink: Send + Sync {
    /// Consume one entry. Called inline on the hot path — keep it cheap.
    fn accept(&self, entry: &TraceEvent);
}

/// A cloneable, possibly-absent connection to a set of [`EventSink`]s,
/// and the one place that stamps.
///
/// This is the type components store. The disabled state
/// (`SinkHandle::none`, also the `Default`) makes
/// [`SinkHandle::emit_with`] and [`SinkHandle::span`] a single branch: the
/// event-building closure is never invoked, no clock is read, no
/// thread-local is touched, nothing is allocated.
///
/// An attached handle owns the span-id counter, the clock and the
/// per-thread stack of open spans for everything reported through it, its
/// clones, and the handles derived from it with [`SinkHandle::and`],
/// [`SinkHandle::with_shard`] and [`SinkHandle::time_spans_into`]: a span
/// opened on one of them is the parent of whatever another reports on the
/// same thread.
#[derive(Clone, Default)]
pub struct SinkHandle {
    core: Option<Arc<trace::Core>>,
}

impl std::fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SinkHandle").field(&self.core.is_some()).finish()
    }
}

impl SinkHandle {
    /// The disabled handle: emits and spans are no-ops.
    pub fn none() -> Self {
        SinkHandle { core: None }
    }

    /// A wall-clock handle feeding one already-shared sink.
    pub fn new(sink: Arc<dyn EventSink>) -> Self {
        SinkHandle::none().and(sink)
    }

    /// A wall-clock handle feeding one concrete sink value.
    pub fn of(sink: impl EventSink + 'static) -> Self {
        Self::new(Arc::new(sink))
    }

    /// An attached handle stamping from `clock`, with no consumer yet
    /// (add them with [`SinkHandle::and`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        SinkHandle { core: Some(Arc::new(trace::Core::new(clock))) }
    }

    /// This handle plus one more consumer: same clock, same span ids, same
    /// span stack. On a disabled handle, a fresh wall-clock one.
    pub fn and(&self, sink: Arc<dyn EventSink>) -> Self {
        let mut core = match &self.core {
            Some(core) => trace::Core::clone(core),
            None => trace::Core::new(Arc::new(WallClock::new())),
        };
        core.consumers.push(sink);
        SinkHandle { core: Some(Arc::new(core)) }
    }

    /// A handle sharing this one's stamper with one field of its core
    /// changed; a disabled handle stays disabled.
    fn derive(&self, change: impl FnOnce(&mut trace::Core)) -> Self {
        let core = self.core.as_ref().map(|shared| {
            let mut core = trace::Core::clone(shared);
            change(&mut core);
            Arc::new(core)
        });
        SinkHandle { core }
    }

    /// This handle, also recording every span's duration as a histogram
    /// (`"span.merge_us"`, …) into `metrics`.
    pub fn time_spans_into(&self, metrics: Metrics) -> Self {
        self.derive(|core| core.span_metrics = Some(metrics))
    }

    /// This handle for shard `shard` of a sharded front-end: every span
    /// opened through it is stamped with the shard index, and so is every
    /// event it reports outside any span ([`TraceEvent::shard`]).
    pub fn with_shard(&self, shard: usize) -> Self {
        self.derive(|core| core.shard = Some(shard))
    }

    /// Whether anything is attached.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Emit the event produced by `build`, if a sink is attached. `build`
    /// is not called otherwise, so computing event fields is free when
    /// observability is off.
    #[inline]
    pub fn emit_with(&self, build: impl FnOnce() -> Event) {
        if let Some(core) = &self.core {
            core.emit(build());
        }
    }

    /// Emit an already-built event, if a sink is attached.
    #[inline]
    pub fn emit(&self, event: Event) {
        if let Some(core) = &self.core {
            core.emit(event);
        }
    }

    /// Open a causal span; the returned guard ends it on drop.
    ///
    /// Inert when the handle is disabled. Spans must be dropped on the
    /// thread that opened them.
    #[inline]
    pub fn span(&self, op: SpanOp) -> SpanGuard {
        match &self.core {
            Some(core) => trace::Core::begin(core, op),
            None => SpanGuard::disabled(),
        }
    }
}

/// Interior-mutable slot for a [`SinkHandle`], for components that emit
/// through `&self` (e.g. a block device shared behind an `Arc`).
///
/// The fast path loads one relaxed atomic; the `RwLock` is only touched
/// while a sink is actually attached.
#[derive(Default)]
pub struct SinkCell {
    enabled: AtomicBool,
    handle: RwLock<SinkHandle>,
}

impl std::fmt::Debug for SinkCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SinkCell").field(&self.enabled.load(Ordering::Relaxed)).finish()
    }
}

impl SinkCell {
    /// A cell with no sink attached.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the stored handle.
    pub fn set(&self, handle: SinkHandle) {
        let mut slot = self.handle.write().unwrap_or_else(|e| e.into_inner());
        self.enabled.store(handle.is_enabled(), Ordering::Relaxed);
        *slot = handle;
    }

    /// Copy of the stored handle.
    pub fn get(&self) -> SinkHandle {
        self.handle.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Emit the event produced by `build`, if a sink is attached.
    #[inline]
    pub fn emit_with(&self, build: impl FnOnce() -> Event) {
        if self.enabled.load(Ordering::Relaxed) {
            self.handle.read().unwrap_or_else(|e| e.into_inner()).emit_with(build);
        }
    }
}

/// Discards every entry. Registering a `NullSink` exercises the full
/// stamping path (closures run, the clock is read, the sink is called)
/// while changing nothing — useful for demonstrating the absence of
/// observer effects.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn accept(&self, _entry: &TraceEvent) {}
}

/// Buffers every entry in arrival order. Intended for tests and offline
/// analysis; keep runs bounded, the buffer grows without limit.
#[derive(Debug, Default)]
pub struct VecSink {
    entries: Mutex<Vec<TraceEvent>>,
}

impl VecSink {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<TraceEvent>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Copy of the buffered entries — span begins and ends included.
    pub fn entries(&self) -> Vec<TraceEvent> {
        self.lock().clone()
    }

    /// Copy of the buffered plain events, without clearing them.
    pub fn events(&self) -> Vec<Event> {
        plain_events(&self.lock())
    }

    /// Empty the buffer and return the plain events it held.
    pub fn drain(&self) -> Vec<Event> {
        plain_events(&std::mem::take(&mut *self.lock()))
    }

    /// Number of buffered entries.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn plain_events(entries: &[TraceEvent]) -> Vec<Event> {
    entries
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::Emit(event) => Some(event),
            _ => None,
        })
        .collect()
}

impl EventSink for VecSink {
    fn accept(&self, entry: &TraceEvent) {
        self.lock().push(*entry);
    }
}

/// Writes one JSON object per event, newline-delimited, to any `Write`
/// target (a file, stderr, an in-memory buffer).
pub struct StreamSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for StreamSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("StreamSink")
    }
}

impl StreamSink {
    /// Stream to the given writer. Wrap slow targets in a `BufWriter`.
    pub fn new(out: impl Write + Send + 'static) -> Self {
        StreamSink { out: Mutex::new(Box::new(out)) }
    }

    /// Stream to a file at `path`, created or truncated, behind a
    /// `BufWriter`.
    pub fn to_file(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(std::io::BufWriter::new(file)))
    }

    /// Flush buffered lines to the target (dropping the sink does too).
    pub fn flush(&self) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = out.flush();
    }
}

impl EventSink for StreamSink {
    fn accept(&self, entry: &TraceEvent) {
        let TraceEventKind::Emit(event) = entry.kind else { return };
        let mut line = event.to_json().render();
        line.push('\n');
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = out.write_all(line.as_bytes());
    }
}

/// Folds events into a shared [`Metrics`] registry: one counter per event
/// kind (`"device.reads"`, `"cache.hits"`, ...) plus histograms for merge
/// shapes (`"merge.writes"`, `"merge.preserved"`, `"wal.append_bytes"`, ...).
#[derive(Debug, Default)]
pub struct MetricsSink {
    metrics: Metrics,
}

impl MetricsSink {
    /// A sink feeding a fresh registry (retrieve it via [`MetricsSink::metrics`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink feeding an existing registry.
    pub fn into_registry(metrics: Metrics) -> Self {
        MetricsSink { metrics }
    }

    /// Handle on the registry this sink feeds.
    pub fn metrics(&self) -> Metrics {
        self.metrics.clone()
    }
}

impl EventSink for MetricsSink {
    fn accept(&self, entry: &TraceEvent) {
        let TraceEventKind::Emit(event) = entry.kind else { return };
        let m = &self.metrics;
        match event {
            Event::DeviceRead { .. } => m.incr("device.reads"),
            Event::DeviceWrite { .. } => m.incr("device.writes"),
            Event::DeviceTrim { .. } => m.incr("device.trims"),
            Event::DeviceSync => m.incr("device.syncs"),
            Event::CacheHit => m.incr("cache.hits"),
            Event::CacheMiss => m.incr("cache.misses"),
            Event::CacheEviction => m.incr("cache.evictions"),
            Event::MemtableFlush { records, .. } => {
                m.incr("memtable.flushes");
                m.observe("memtable.flush_records", records);
            }
            Event::PolicyDecision { full, predicted_writes, .. } => {
                m.incr("policy.decisions");
                m.incr(if full { "policy.full_merges" } else { "policy.partial_merges" });
                m.observe("policy.predicted_writes", predicted_writes);
            }
            Event::MergeStart { .. } => {}
            Event::MergeFinish { target_level, writes, reads, preserved, src_records, .. } => {
                m.incr("merge.count");
                m.add("merge.writes_total", writes);
                m.add_with("merge.level_writes", &[("level", &target_level.to_string())], writes);
                m.observe("merge.writes", writes);
                m.observe("merge.reads", reads);
                m.observe("merge.preserved", preserved);
                m.observe("merge.src_records", src_records);
                if let Some(shard) = entry.shard {
                    m.incr("shard.merges");
                    m.observe("shard.merge_writes", writes);
                    m.add_with(
                        "shard.merge_writes_total",
                        &[("shard", &shard.to_string())],
                        writes,
                    );
                }
            }
            Event::PairwiseFix { writes, .. } => {
                m.incr("constraint.pairwise_fixes");
                m.add("constraint.pairwise_fix_writes", writes);
            }
            Event::Compaction { writes, .. } => {
                m.incr("constraint.compactions");
                m.add("constraint.compaction_writes", writes);
            }
            Event::LevelAdded { .. } => m.incr("tree.levels_added"),
            Event::WalAppend { bytes, .. } => {
                m.incr("wal.appends");
                m.observe("wal.append_bytes", bytes);
            }
            Event::Checkpoint { .. } => m.incr("durability.checkpoints"),
            Event::Recovery { replayed } => {
                m.incr("durability.recoveries");
                m.add("durability.replayed_requests", replayed);
            }
            Event::FaultInjected { kind, .. } => {
                m.incr("fault.injected");
                m.incr(match kind {
                    FaultEventKind::ReadError => "fault.read_errors",
                    FaultEventKind::WriteError => "fault.write_errors",
                    FaultEventKind::SyncError => "fault.sync_errors",
                    FaultEventKind::DroppedSync => "fault.dropped_syncs",
                    FaultEventKind::BitFlip => "fault.bit_flips",
                    FaultEventKind::TornWrite => "fault.torn_writes",
                    FaultEventKind::PowerCut => "fault.power_cuts",
                });
            }
            Event::RetryAttempt { attempt } => {
                m.incr("degraded.retry_attempts");
                m.observe("degraded.retry_attempt_no", u64::from(attempt));
            }
            Event::BlockQuarantined { .. } => m.incr("degraded.blocks_quarantined"),
            Event::ReadRepair { .. } => m.incr("degraded.read_repairs"),
            Event::ShardRouted { .. } => m.incr("shard.routed"),
            Event::LedgerOutcome { predicted, best_predicted, actual, .. } => {
                m.incr("policy.ledger_outcomes");
                m.add("policy.regret_blocks", predicted.saturating_sub(best_predicted));
                m.observe("policy.model_error", actual.abs_diff(predicted));
            }
            Event::FlushEnqueued { records, backlog } => {
                m.incr("scheduler.flushes_enqueued");
                m.observe("scheduler.flush_records", records);
                m.observe("scheduler.imm_backlog", backlog as u64);
            }
            Event::JobStart { queued, .. } => {
                m.incr("scheduler.job_starts");
                m.observe("scheduler.queue_depth", queued as u64);
            }
            Event::Backpressure { backlog, .. } => {
                m.incr("scheduler.backpressure_stalls");
                m.observe("scheduler.stall_backlog", backlog as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_builds_the_event() {
        let handle = SinkHandle::none();
        let mut built = false;
        handle.emit_with(|| {
            built = true;
            Event::DeviceSync
        });
        assert!(!built);
        assert!(!handle.is_enabled());
        assert!(handle.span(SpanOp::lookup()).id().is_none(), "detached spans are inert");
        assert!(!handle.with_shard(3).is_enabled(), "tagging a detached handle attaches nothing");
    }

    #[test]
    fn vec_sink_preserves_order_and_drains() {
        let sink = Arc::new(VecSink::new());
        let handle = SinkHandle::new(sink.clone());
        handle.emit(Event::CacheMiss);
        handle.emit(Event::DeviceRead { block: 3 });
        handle.emit(Event::CacheHit);
        assert_eq!(
            sink.drain(),
            vec![Event::CacheMiss, Event::DeviceRead { block: 3 }, Event::CacheHit]
        );
        assert!(sink.is_empty());
    }

    #[test]
    fn stream_sink_writes_json_lines() {
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
        let sink = Arc::new(StreamSink::new(buffer.clone()));
        let handle = SinkHandle::new(sink.clone());
        handle.emit(Event::WalAppend { bytes: 21 });
        // Span begins and ends are not events: the stream skips them.
        drop(handle.span(SpanOp::lookup()));
        handle.emit(Event::CacheHit);
        sink.flush();
        let text = String::from_utf8(buffer.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text, "{\"type\":\"wal_append\",\"bytes\":21}\n{\"type\":\"cache_hit\"}\n");
    }

    #[test]
    fn metrics_sink_folds_counters_and_histograms() {
        let sink = Arc::new(MetricsSink::new());
        let metrics = sink.metrics();
        let handle = SinkHandle::new(sink);
        handle.emit(Event::CacheHit);
        handle.emit(Event::CacheHit);
        handle.emit(Event::DeviceWrite { block: 1 });
        handle.emit(Event::CacheEviction);
        handle.emit(Event::MergeFinish {
            target_level: 2,
            full: false,
            src_records: 5,
            writes: 3,
            reads: 1,
            preserved: 0,
            max_key: 7,
        });
        assert_eq!(metrics.counter("cache.hits"), 2);
        assert_eq!(metrics.counter("device.writes"), 1);
        assert_eq!(metrics.counter("cache.evictions"), 1);
        assert_eq!(metrics.counter("device.reads"), 0);
        assert_eq!(metrics.counter("merge.count"), 1);
        assert_eq!(metrics.counter("merge.writes_total"), 3);
        let writes = metrics.histogram("merge.writes").unwrap();
        assert_eq!(writes.count(), 1);
        assert_eq!(writes.sum(), 3);
    }

    #[test]
    fn every_consumer_sees_the_same_entries() {
        let a = Arc::new(VecSink::new());
        let b = Arc::new(VecSink::new());
        let handle =
            SinkHandle::with_clock(Arc::new(TickClock::new())).and(a.clone()).and(b.clone());
        {
            let _span = handle.span(SpanOp::flush(true));
            handle.emit(Event::DeviceTrim { block: 9 });
        }
        assert_eq!(a.events(), vec![Event::DeviceTrim { block: 9 }]);
        assert_eq!(a.len(), 3, "begin, emit, end");
        assert_eq!(a.entries(), b.entries(), "same ids, same stamps, same order");
    }

    #[test]
    fn derived_handles_share_one_span_stack_and_one_id_space() {
        let buffer = Arc::new(VecSink::new());
        let extra = Arc::new(VecSink::new());
        let base = SinkHandle::with_clock(Arc::new(TickClock::new())).and(buffer.clone());
        let clone = base.clone();
        let shard = base.with_shard(2);
        let wider = base.and(extra.clone());

        let outer = base.span(SpanOp::put());
        clone.emit(Event::CacheHit);
        let inner = shard.span(SpanOp::lock_wait());
        wider.emit(Event::CacheMiss);
        drop(inner);
        drop(outer);

        let (outer_id, inner_id) = (SpanId::from_raw(1), SpanId::from_raw(2));
        let entries = buffer.entries();
        let kinds: Vec<(Option<SpanId>, TraceEventKind)> =
            entries.iter().map(|e| (e.span, e.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                (None, TraceEventKind::Begin { id: outer_id, parent: None, op: SpanOp::put() }),
                (Some(outer_id), TraceEventKind::Emit(Event::CacheHit)),
                (
                    Some(outer_id),
                    TraceEventKind::Begin {
                        id: inner_id,
                        parent: Some(outer_id),
                        op: SpanOp::lock_wait().with_shard(2)
                    }
                ),
                (Some(inner_id), TraceEventKind::Emit(Event::CacheMiss)),
                (
                    Some(outer_id),
                    TraceEventKind::End {
                        id: inner_id,
                        op: SpanOp::lock_wait().with_shard(2),
                        began_us: 2
                    }
                ),
                (None, TraceEventKind::End { id: outer_id, op: SpanOp::put(), began_us: 0 }),
            ]
        );
        let shards: Vec<Option<usize>> = entries.iter().map(|e| e.shard).collect();
        assert_eq!(
            shards,
            vec![None, None, Some(2), Some(2), Some(2), None],
            "a span's own shard on its begin and end, the innermost span's on an emit"
        );
        let stamps: Vec<u64> = entries.iter().map(|e| e.at_us).collect();
        assert_eq!(stamps, vec![0, 1, 2, 3, 4, 5], "one clock stamps every entry once");
        // The wider handle's extra consumer saw only what went through it.
        assert_eq!(extra.events(), vec![Event::CacheMiss]);
        assert_eq!(extra.entries()[0].span, Some(inner_id));
    }

    #[test]
    fn a_merge_finish_carries_its_shard_with_or_without_a_span() {
        let buffer = Arc::new(VecSink::new());
        let sink = Arc::new(MetricsSink::new());
        let metrics = sink.metrics();
        let base = SinkHandle::new(buffer.clone()).and(sink);
        let finish = Event::MergeFinish {
            target_level: 2,
            full: true,
            src_records: 5,
            writes: 3,
            reads: 1,
            preserved: 0,
            max_key: 7,
        };
        // Outside any span the handle's own tag; inside one, the span's.
        base.with_shard(1).emit(finish);
        {
            let _merge = base.with_shard(0).span(SpanOp::merge(2, true));
            base.emit(finish);
        }
        base.emit(finish);
        let shards: Vec<Option<usize>> = buffer
            .entries()
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Emit(_)))
            .map(|e| e.shard)
            .collect();
        assert_eq!(shards, vec![Some(1), Some(0), None], "one entry per merge, no tagged twin");
        assert_eq!(metrics.counter("merge.count"), 3);
        assert_eq!(metrics.counter("shard.merges"), 2);
        assert_eq!(metrics.counter("shard.merge_writes_total{shard=\"1\"}"), 3);
    }

    #[test]
    fn sink_cell_swaps_at_runtime() {
        let cell = SinkCell::new();
        let mut built = false;
        cell.emit_with(|| {
            built = true;
            Event::CacheHit
        });
        assert!(!built, "no sink attached: closure must not run");

        let sink = Arc::new(VecSink::new());
        cell.set(SinkHandle::new(sink.clone()));
        cell.emit_with(|| Event::CacheHit);
        assert_eq!(sink.len(), 1);

        cell.set(SinkHandle::none());
        cell.emit_with(|| Event::CacheHit);
        assert_eq!(sink.len(), 1, "detached sink receives nothing");
    }

    #[test]
    fn event_json_has_type_tag() {
        let doc = Event::PolicyDecision { target_level: 3, full: false, predicted_writes: 12 }
            .to_json()
            .render();
        assert_eq!(
            doc,
            "{\"type\":\"policy_decision\",\"target_level\":3,\"full\":false,\"predicted_writes\":12}"
        );
    }
}
