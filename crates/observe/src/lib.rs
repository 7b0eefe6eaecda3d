//! Observability for the LSM-on-SSD stack.
//!
//! Every layer of the stack — the simulated SSD, its block cache, the LSM
//! tree's merge machinery, the WAL — reports what it does as [`Event`]s
//! pushed into an [`EventSink`]. Components hold a [`SinkHandle`] (or a
//! [`SinkCell`] where interior mutability is needed) and emit through it;
//! when no sink is registered the emit path is a single branch on an
//! `Option`, and the closure that would build the event is never run, so
//! disabled observability costs nothing measurable.
//!
//! Provided sinks:
//!
//! - [`NullSink`] — discards everything (equivalent to no sink; useful to
//!   prove the absence of observer effects).
//! - [`VecSink`] — buffers events in order for tests and offline analysis.
//! - [`CountingSink`] — lock-free per-category counters.
//! - [`StreamSink`] — one JSON object per line to any `Write` target.
//! - [`MetricsSink`] — folds events into a shared [`Metrics`] registry of
//!   counters and histograms.
//! - [`FanoutSink`] — broadcasts to several sinks at once.
//!
//! The [`trace`] module layers *causality* on top: a [`Tracer`] is an
//! `EventSink` that opens timed, nested spans (see
//! [`SinkHandle::span`]) and tags every event with the span that caused
//! it, feeding Chrome-trace, Prometheus, and time-series exporters.

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
pub use json::Json;
pub use metrics::{Histogram, Metrics, TextExpositionSink};
pub use trace::{
    ChromeTraceSink, Clock, SpanGuard, SpanId, SpanKind, SpanOp, TickClock, TimeseriesSink,
    TraceEvent, TraceEventKind, TraceSink, Tracer, VecTraceSink, WallClock,
};
pub use windowed::{RateWindow, WindowedHistogram};

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
        /// Whether the append was followed by an fsync.
        synced: bool,
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
    /// A merge completed inside a shard of a sharded front-end. Emitted by
    /// the shard's tagging sink right after the (untagged)
    /// [`Event::MergeFinish`] of the shard's own tree, so per-shard merge
    /// activity can be attributed without guessing from interleaving.
    ShardMergeFinish {
        /// Zero-based shard index the merge ran in.
        shard: usize,
        /// Paper-numbered target level within that shard's tree.
        target_level: usize,
        /// `true` for a full merge.
        full: bool,
        /// Blocks written into the target level.
        writes: u64,
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
    /// A health detector changed state at a window boundary. Emitted by
    /// [`HealthSink`] into its transition stream (never back into the
    /// stream it consumes), so alerting pipelines can subscribe to state
    /// changes without polling the report.
    HealthTransition {
        /// Which detector transitioned.
        detector: HealthDetector,
        /// State before the window boundary.
        from: HealthState,
        /// State after the window boundary.
        to: HealthState,
        /// Zero-based index of the window at whose close the transition
        /// fired.
        window: u64,
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
            Event::ShardMergeFinish { .. } => "shard_merge_finish",
            Event::LedgerOutcome { .. } => "ledger_outcome",
            Event::FlushEnqueued { .. } => "flush_enqueued",
            Event::JobStart { .. } => "job_start",
            Event::Backpressure { .. } => "backpressure",
            Event::HealthTransition { .. } => "health_transition",
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
            Event::WalAppend { bytes, synced } => {
                put("bytes", Json::from(bytes));
                put("synced", Json::from(synced));
            }
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
            Event::ShardMergeFinish { shard, target_level, full, writes } => {
                put("shard", Json::from(shard));
                put("target_level", Json::from(target_level));
                put("full", Json::from(full));
                put("writes", Json::from(writes));
            }
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
            Event::HealthTransition { detector, from, to, window } => {
                put("detector", Json::from(detector.name()));
                put("from", Json::from(from.name()));
                put("to", Json::from(to.name()));
                put("window", Json::from(window));
            }
        }
        Json::Obj(pairs)
    }
}

/// Receiver of [`Event`]s. Implementations must be thread-safe: the shared
/// tree and the device emit from whatever thread touches them.
pub trait EventSink: Send + Sync {
    /// Consume one event. Called inline on the hot path — keep it cheap.
    fn emit(&self, event: &Event);

    /// Flush any buffered output. Default: no-op.
    fn flush(&self) {}

    /// Open a causal span covering the operation described by `op`.
    ///
    /// Sinks that do not track causality keep the default and return
    /// `None` — callers use [`SinkHandle::span`], whose guard then does
    /// nothing on drop, so span-annotated code paths cost one virtual
    /// call when a plain sink is attached and nothing when none is.
    /// [`trace::Tracer`] overrides this to allocate a real [`trace::SpanId`].
    fn span_begin(&self, _op: &trace::SpanOp) -> Option<trace::SpanId> {
        None
    }

    /// Close a span previously opened by [`EventSink::span_begin`].
    /// Implementations must ignore ids they did not issue.
    fn span_end(&self, _id: trace::SpanId, _op: &trace::SpanOp) {}
}

/// A cloneable, possibly-absent reference to an [`EventSink`].
///
/// This is the type components store. The disabled state (`SinkHandle::none`,
/// also the `Default`) makes [`SinkHandle::emit_with`] a single branch, and
/// the event-building closure is never invoked.
#[derive(Clone, Default)]
pub struct SinkHandle {
    sink: Option<Arc<dyn EventSink>>,
}

impl std::fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SinkHandle").field(&self.sink.is_some()).finish()
    }
}

impl SinkHandle {
    /// The disabled handle: emits are no-ops.
    pub fn none() -> Self {
        SinkHandle { sink: None }
    }

    /// Wrap an already-shared sink.
    pub fn new(sink: Arc<dyn EventSink>) -> Self {
        SinkHandle { sink: Some(sink) }
    }

    /// Wrap a concrete sink value.
    pub fn of(sink: impl EventSink + 'static) -> Self {
        SinkHandle { sink: Some(Arc::new(sink)) }
    }

    /// Whether a sink is attached.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The attached sink, if any — useful for layering (e.g. wrapping the
    /// current sink together with a probe in a [`FanoutSink`]).
    pub fn as_arc(&self) -> Option<Arc<dyn EventSink>> {
        self.sink.clone()
    }

    /// Emit the event produced by `build`, if a sink is attached. `build`
    /// is not called otherwise, so computing event fields is free when
    /// observability is off.
    #[inline]
    pub fn emit_with(&self, build: impl FnOnce() -> Event) {
        if let Some(sink) = &self.sink {
            sink.emit(&build());
        }
    }

    /// Emit an already-built event, if a sink is attached.
    #[inline]
    pub fn emit(&self, event: Event) {
        if let Some(sink) = &self.sink {
            sink.emit(&event);
        }
    }

    /// Flush the attached sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.flush();
        }
    }

    /// Open a causal span; the returned guard ends it on drop.
    ///
    /// Inert (and nearly free) when the handle is disabled or the sink
    /// does not trace; a real timed span when a [`trace::Tracer`] is
    /// attached. Spans must be dropped on the thread that opened them.
    #[inline]
    pub fn span(&self, op: trace::SpanOp) -> trace::SpanGuard {
        trace::SpanGuard::begin(self.sink.clone(), op)
    }
}

impl From<Arc<dyn EventSink>> for SinkHandle {
    fn from(sink: Arc<dyn EventSink>) -> Self {
        SinkHandle::new(sink)
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

/// Discards every event. Registering a `NullSink` exercises the full emit
/// path (closures run, the sink is called) while changing nothing — useful
/// for demonstrating the absence of observer effects.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: &Event) {}
}

/// Buffers events in arrival order. Intended for tests and offline
/// analysis; keep runs bounded, the buffer grows without limit.
#[derive(Debug, Default)]
pub struct VecSink {
    events: Mutex<Vec<Event>>,
}

impl VecSink {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take all buffered events, leaving the buffer empty.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Copy of the buffered events without clearing them.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for VecSink {
    fn emit(&self, event: &Event) {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).push(*event);
    }
}

/// Per-category event totals, visible while the workload is still running.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CountingSnapshot {
    /// Device blocks read.
    pub device_reads: u64,
    /// Device blocks written.
    pub device_writes: u64,
    /// Device blocks trimmed.
    pub device_trims: u64,
    /// Device syncs.
    pub device_syncs: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Cache evictions.
    pub cache_evictions: u64,
    /// Memtable flush extractions.
    pub memtable_flushes: u64,
    /// Policy decisions taken.
    pub policy_decisions: u64,
    /// Merges completed.
    pub merges: u64,
    /// Blocks written by completed merges.
    pub merge_writes: u64,
    /// Blocks preserved (not rewritten) by completed merges.
    pub merge_preserved: u64,
    /// Pairwise seam fixes.
    pub pairwise_fixes: u64,
    /// Whole-level compactions.
    pub compactions: u64,
    /// Levels added.
    pub levels_added: u64,
    /// WAL appends.
    pub wal_appends: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Recoveries performed.
    pub recoveries: u64,
    /// Faults fired by a fault-injection device.
    pub faults_injected: u64,
    /// Transient-error retries attempted.
    pub retry_attempts: u64,
    /// Blocks quarantined after integrity failures.
    pub blocks_quarantined: u64,
    /// Quarantined blocks dropped from the structure (read repairs).
    pub read_repairs: u64,
    /// Requests routed to a shard of a sharded front-end.
    pub shard_routed: u64,
    /// Shard-tagged merge completions.
    pub shard_merges: u64,
    /// Decision-ledger outcomes reconciled.
    pub ledger_outcomes: u64,
    /// Memtables sealed and enqueued for background flush.
    pub flushes_enqueued: u64,
    /// Background maintenance jobs started.
    pub job_starts: u64,
    /// Writers stalled by admission control.
    pub backpressure_stalls: u64,
    /// Health detector state transitions.
    pub health_transitions: u64,
}

/// Counts events per category with relaxed atomics — no locking, safe to
/// leave attached in perf-sensitive runs.
#[derive(Debug, Default)]
pub struct CountingSink {
    device_reads: AtomicU64,
    device_writes: AtomicU64,
    device_trims: AtomicU64,
    device_syncs: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    memtable_flushes: AtomicU64,
    policy_decisions: AtomicU64,
    merges: AtomicU64,
    merge_writes: AtomicU64,
    merge_preserved: AtomicU64,
    pairwise_fixes: AtomicU64,
    compactions: AtomicU64,
    levels_added: AtomicU64,
    wal_appends: AtomicU64,
    checkpoints: AtomicU64,
    recoveries: AtomicU64,
    faults_injected: AtomicU64,
    retry_attempts: AtomicU64,
    blocks_quarantined: AtomicU64,
    read_repairs: AtomicU64,
    shard_routed: AtomicU64,
    shard_merges: AtomicU64,
    ledger_outcomes: AtomicU64,
    flushes_enqueued: AtomicU64,
    job_starts: AtomicU64,
    backpressure_stalls: AtomicU64,
    health_transitions: AtomicU64,
}

impl CountingSink {
    /// A sink with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read every counter at once.
    pub fn snapshot(&self) -> CountingSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        CountingSnapshot {
            device_reads: get(&self.device_reads),
            device_writes: get(&self.device_writes),
            device_trims: get(&self.device_trims),
            device_syncs: get(&self.device_syncs),
            cache_hits: get(&self.cache_hits),
            cache_misses: get(&self.cache_misses),
            cache_evictions: get(&self.cache_evictions),
            memtable_flushes: get(&self.memtable_flushes),
            policy_decisions: get(&self.policy_decisions),
            merges: get(&self.merges),
            merge_writes: get(&self.merge_writes),
            merge_preserved: get(&self.merge_preserved),
            pairwise_fixes: get(&self.pairwise_fixes),
            compactions: get(&self.compactions),
            levels_added: get(&self.levels_added),
            wal_appends: get(&self.wal_appends),
            checkpoints: get(&self.checkpoints),
            recoveries: get(&self.recoveries),
            faults_injected: get(&self.faults_injected),
            retry_attempts: get(&self.retry_attempts),
            blocks_quarantined: get(&self.blocks_quarantined),
            read_repairs: get(&self.read_repairs),
            shard_routed: get(&self.shard_routed),
            shard_merges: get(&self.shard_merges),
            ledger_outcomes: get(&self.ledger_outcomes),
            flushes_enqueued: get(&self.flushes_enqueued),
            job_starts: get(&self.job_starts),
            backpressure_stalls: get(&self.backpressure_stalls),
            health_transitions: get(&self.health_transitions),
        }
    }
}

impl EventSink for CountingSink {
    fn emit(&self, event: &Event) {
        let bump = |c: &AtomicU64| {
            c.fetch_add(1, Ordering::Relaxed);
        };
        match *event {
            Event::DeviceRead { .. } => bump(&self.device_reads),
            Event::DeviceWrite { .. } => bump(&self.device_writes),
            Event::DeviceTrim { .. } => bump(&self.device_trims),
            Event::DeviceSync => bump(&self.device_syncs),
            Event::CacheHit => bump(&self.cache_hits),
            Event::CacheMiss => bump(&self.cache_misses),
            Event::CacheEviction => bump(&self.cache_evictions),
            Event::MemtableFlush { .. } => bump(&self.memtable_flushes),
            Event::PolicyDecision { .. } => bump(&self.policy_decisions),
            Event::MergeStart { .. } => {}
            Event::MergeFinish { writes, preserved, .. } => {
                bump(&self.merges);
                self.merge_writes.fetch_add(writes, Ordering::Relaxed);
                self.merge_preserved.fetch_add(preserved, Ordering::Relaxed);
            }
            Event::PairwiseFix { .. } => bump(&self.pairwise_fixes),
            Event::Compaction { .. } => bump(&self.compactions),
            Event::LevelAdded { .. } => bump(&self.levels_added),
            Event::WalAppend { .. } => bump(&self.wal_appends),
            Event::Checkpoint { .. } => bump(&self.checkpoints),
            Event::Recovery { .. } => bump(&self.recoveries),
            Event::FaultInjected { .. } => bump(&self.faults_injected),
            Event::RetryAttempt { .. } => bump(&self.retry_attempts),
            Event::BlockQuarantined { .. } => bump(&self.blocks_quarantined),
            Event::ReadRepair { .. } => bump(&self.read_repairs),
            Event::ShardRouted { .. } => bump(&self.shard_routed),
            Event::ShardMergeFinish { .. } => bump(&self.shard_merges),
            Event::LedgerOutcome { .. } => bump(&self.ledger_outcomes),
            Event::FlushEnqueued { .. } => bump(&self.flushes_enqueued),
            Event::JobStart { .. } => bump(&self.job_starts),
            Event::Backpressure { .. } => bump(&self.backpressure_stalls),
            Event::HealthTransition { .. } => bump(&self.health_transitions),
        }
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

    /// Stream to standard error.
    pub fn to_stderr() -> Self {
        Self::new(std::io::stderr())
    }

    /// Stream to a file at `path`, created or truncated, behind a
    /// `BufWriter`.
    pub fn to_file(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(std::io::BufWriter::new(file)))
    }
}

impl EventSink for StreamSink {
    fn emit(&self, event: &Event) {
        let mut line = event.to_json().render();
        line.push('\n');
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = out.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = out.flush();
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
    fn emit(&self, event: &Event) {
        let m = &self.metrics;
        match *event {
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
            Event::ShardMergeFinish { shard, writes, .. } => {
                m.incr("shard.merges");
                m.observe("shard.merge_writes", writes);
                m.add_with("shard.merge_writes_total", &[("shard", &shard.to_string())], writes);
            }
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
            Event::HealthTransition { detector, to, .. } => {
                m.incr("health.transitions");
                m.add_with("health.detector_transitions", &[("detector", detector.name())], 1);
                if to.is_alerting() {
                    m.incr("health.alerts");
                }
            }
        }
    }
}

/// Broadcasts each event to every inner sink, in registration order.
#[derive(Default)]
pub struct FanoutSink {
    sinks: Vec<Arc<dyn EventSink>>,
}

impl std::fmt::Debug for FanoutSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("FanoutSink").field(&self.sinks.len()).finish()
    }
}

impl FanoutSink {
    /// Fan out to the given sinks.
    pub fn new(sinks: Vec<Arc<dyn EventSink>>) -> Self {
        FanoutSink { sinks }
    }

    /// Append another sink.
    pub fn push(&mut self, sink: Arc<dyn EventSink>) {
        self.sinks.push(sink);
    }
}

impl EventSink for FanoutSink {
    fn emit(&self, event: &Event) {
        for sink in &self.sinks {
            sink.emit(event);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }

    /// Spans go to the first inner sink that accepts them (i.e. the first
    /// [`trace::Tracer`]); at most one tracer per fanout sees spans. Plain
    /// events still reach every sink.
    fn span_begin(&self, op: &trace::SpanOp) -> Option<trace::SpanId> {
        self.sinks.iter().find_map(|sink| sink.span_begin(op))
    }

    fn span_end(&self, id: trace::SpanId, op: &trace::SpanOp) {
        for sink in &self.sinks {
            sink.span_end(id, op);
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
    fn counting_sink_buckets_by_category() {
        let sink = CountingSink::new();
        sink.emit(&Event::DeviceWrite { block: 1 });
        sink.emit(&Event::DeviceWrite { block: 2 });
        sink.emit(&Event::CacheEviction);
        sink.emit(&Event::MergeFinish {
            target_level: 1,
            full: true,
            src_records: 10,
            writes: 4,
            reads: 2,
            preserved: 1,
            max_key: 99,
        });
        let snap = sink.snapshot();
        assert_eq!(snap.device_writes, 2);
        assert_eq!(snap.cache_evictions, 1);
        assert_eq!(snap.merges, 1);
        assert_eq!(snap.merge_writes, 4);
        assert_eq!(snap.merge_preserved, 1);
        assert_eq!(snap.device_reads, 0);
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
        let sink = StreamSink::new(buffer.clone());
        sink.emit(&Event::WalAppend { bytes: 21, synced: false });
        sink.emit(&Event::CacheHit);
        sink.flush();
        let text = String::from_utf8(buffer.0.lock().unwrap().clone()).unwrap();
        assert_eq!(
            text,
            "{\"type\":\"wal_append\",\"bytes\":21,\"synced\":false}\n{\"type\":\"cache_hit\"}\n"
        );
    }

    #[test]
    fn metrics_sink_folds_counters_and_histograms() {
        let sink = MetricsSink::new();
        let metrics = sink.metrics();
        sink.emit(&Event::CacheHit);
        sink.emit(&Event::CacheHit);
        sink.emit(&Event::MergeFinish {
            target_level: 2,
            full: false,
            src_records: 5,
            writes: 3,
            reads: 1,
            preserved: 0,
            max_key: 7,
        });
        assert_eq!(metrics.counter("cache.hits"), 2);
        assert_eq!(metrics.counter("merge.count"), 1);
        assert_eq!(metrics.counter("merge.writes_total"), 3);
        let writes = metrics.histogram("merge.writes").unwrap();
        assert_eq!(writes.count(), 1);
        assert_eq!(writes.sum(), 3);
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let a = Arc::new(CountingSink::new());
        let b = Arc::new(VecSink::new());
        let fan = FanoutSink::new(vec![a.clone(), b.clone()]);
        fan.emit(&Event::DeviceTrim { block: 9 });
        assert_eq!(a.snapshot().device_trims, 1);
        assert_eq!(b.events(), vec![Event::DeviceTrim { block: 9 }]);
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
