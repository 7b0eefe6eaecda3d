//! Multithreaded closed-loop driver: M writers + R readers over any
//! [`Workload`].
//!
//! The single-threaded drivers in [`crate::driver`] measure amortized
//! *device* costs; this module measures the front-end itself — how many
//! operations per second N threads push through a [`ShardedLsmTree`], and
//! what the request-latency tail looks like while merges run inline.
//! Closed loop means every thread issues its next request as soon as the
//! previous one completes: offered load equals served load, so ops/s is a
//! direct capacity measure.
//!
//! Each writer thread owns its own deterministic [`Workload`] instance
//! (seeded per thread, typically over a disjoint key range via
//! [`OffsetKeys`]); each reader owns a per-thread key sequence. Latencies
//! are recorded per-thread into [`LatencyHistogram`]s and merged after the
//! run, so there is no cross-thread contention on the measurement path.

use std::time::{Duration, Instant};

use lsm_tree::{Key, Request, RequestSource, Result, ShardedLsmTree, WriteBatch};

use crate::driver::Workload;
use crate::histogram::LatencyHistogram;
use crate::InsertRatio;

/// Wraps a workload so every key is shifted by a fixed offset — the
/// standard way to hand each writer thread its own disjoint key range
/// while reusing any single-range generator.
#[derive(Debug, Clone)]
pub struct OffsetKeys<W> {
    inner: W,
    offset: Key,
}

impl<W> OffsetKeys<W> {
    /// Shift every key of `inner` by `offset`.
    pub fn new(inner: W, offset: Key) -> Self {
        OffsetKeys { inner, offset }
    }
}

impl<W: RequestSource> RequestSource for OffsetKeys<W> {
    fn next_request(&mut self) -> Request {
        match self.inner.next_request() {
            Request::Put(k, payload) => Request::Put(k.wrapping_add(self.offset), payload),
            Request::Delete(k) => Request::Delete(k.wrapping_add(self.offset)),
        }
    }
}

impl<W: Workload> Workload for OffsetKeys<W> {
    fn set_ratio(&mut self, ratio: InsertRatio) {
        self.inner.set_ratio(ratio);
    }
}

/// A pre-generated request tape: materialize any workload's next `n`
/// requests up front, then replay them with near-zero per-request cost.
/// Throughput benches use this so the measured loop times the *index*,
/// not the generator's RNG and live-key bookkeeping.
#[derive(Debug, Clone)]
pub struct PrebuiltRequests {
    reqs: Vec<Request>,
    at: usize,
}

impl PrebuiltRequests {
    /// Record the next `n` requests of `source`.
    pub fn generate<S: RequestSource + ?Sized>(source: &mut S, n: u64) -> Self {
        PrebuiltRequests { reqs: (0..n).map(|_| source.next_request()).collect(), at: 0 }
    }

    /// Number of recorded requests.
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }
}

impl RequestSource for PrebuiltRequests {
    fn next_request(&mut self) -> Request {
        let req = self.reqs[self.at % self.reqs.len()].clone();
        self.at += 1;
        req
    }
}

impl Workload for PrebuiltRequests {
    fn set_ratio(&mut self, _ratio: InsertRatio) {
        // The tape is fixed; ratio changes would need regeneration.
    }
}

/// Thread counts and per-thread work for one closed-loop run.
#[derive(Debug, Clone, Copy)]
pub struct ThreadPlan {
    /// Writer threads (each drives its own [`Workload`]).
    pub writers: usize,
    /// Reader threads (each drives its own key sequence).
    pub readers: usize,
    /// Requests applied by each writer.
    pub requests_per_writer: u64,
    /// Lookups issued by each reader.
    pub reads_per_reader: u64,
    /// Requests grouped into each [`WriteBatch`] (0 or 1 = one `apply`
    /// per request). With a batch size, each latency sample covers one
    /// whole batch — including its single group-commit fsync.
    pub batch: u64,
}

impl ThreadPlan {
    /// Group each writer's requests into batches of `n`.
    pub fn with_batch(mut self, n: u64) -> Self {
        self.batch = n;
        self
    }
}

/// What a closed-loop run measured.
#[derive(Debug, Clone)]
pub struct ClosedLoopReport {
    /// Wall-clock time of the whole run (all threads).
    pub elapsed: Duration,
    /// Modifications applied across all writers (individual requests,
    /// even when grouped into batches).
    pub writes: u64,
    /// Lookups served across all readers.
    pub reads: u64,
    /// Write latencies (nanoseconds), merged across writers — one sample
    /// per `apply`, or per batch when [`ThreadPlan::batch`] > 1.
    pub write_latency_ns: LatencyHistogram,
    /// Per-request read latencies (nanoseconds), merged across readers.
    pub read_latency_ns: LatencyHistogram,
}

impl ClosedLoopReport {
    /// Writer throughput over the run's wall-clock.
    pub fn write_ops_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.writes as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Reader throughput over the run's wall-clock.
    pub fn read_ops_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.reads as f64 / self.elapsed.as_secs_f64()
        }
    }
}

/// What one observed request was: a modification (`apply` or one whole
/// batch) or a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// A writer-side request (put/delete, or one batch).
    Put,
    /// A reader-side lookup.
    Get,
}

/// Run `plan.writers` writer threads and `plan.readers` reader threads to
/// completion over `index`.
///
/// `make_workload(w)` builds writer `w`'s request source (call with a
/// per-writer seed and key offset to keep writers disjoint);
/// `read_key(r, i)` yields reader `r`'s `i`-th probe key. The first error
/// from any thread aborts the run.
pub fn run_closed_loop<W, MW, RK>(
    index: &ShardedLsmTree,
    plan: ThreadPlan,
    make_workload: MW,
    read_key: RK,
) -> Result<ClosedLoopReport>
where
    W: Workload + Send,
    MW: Fn(usize) -> W,
    RK: Fn(u64, u64) -> Key + Sync,
{
    run_closed_loop_observed(index, plan, make_workload, read_key, |_, _| {})
}

/// [`run_closed_loop`] with a per-request observer: `observe(kind, ns)`
/// is called from the worker threads after each timed request, so a
/// windowed consumer (e.g. `observe::HealthSink`) sees the latency stream
/// as it happens instead of one merged histogram at the end. The observer
/// runs inside the timed loop — keep it cheap.
pub fn run_closed_loop_observed<W, MW, RK, O>(
    index: &ShardedLsmTree,
    plan: ThreadPlan,
    make_workload: MW,
    read_key: RK,
    observe: O,
) -> Result<ClosedLoopReport>
where
    W: Workload + Send,
    MW: Fn(usize) -> W,
    RK: Fn(u64, u64) -> Key + Sync,
    O: Fn(RequestKind, u64) + Sync,
{
    let workloads: Vec<W> = (0..plan.writers).map(&make_workload).collect();
    let batch = plan.batch.max(1);
    let t0 = Instant::now();
    let mut writes = 0u64;
    let mut write_hists: Vec<LatencyHistogram> = Vec::new();
    let mut read_hists: Vec<LatencyHistogram> = Vec::new();
    std::thread::scope(|s| -> Result<()> {
        let mut writer_handles = Vec::with_capacity(plan.writers);
        for mut wl in workloads {
            let observe = &observe;
            writer_handles.push(s.spawn(move || -> Result<(LatencyHistogram, u64)> {
                let mut hist = LatencyHistogram::new();
                let mut applied = 0u64;
                if batch <= 1 {
                    for _ in 0..plan.requests_per_writer {
                        let req = wl.next_request();
                        let t = Instant::now();
                        index.apply(req)?;
                        let ns = t.elapsed().as_nanos() as u64;
                        hist.record(ns);
                        observe(RequestKind::Put, ns);
                        applied += 1;
                    }
                } else {
                    let mut left = plan.requests_per_writer;
                    while left > 0 {
                        let n = left.min(batch);
                        let mut wb = WriteBatch::with_capacity(n as usize);
                        for _ in 0..n {
                            wb.push(wl.next_request());
                        }
                        let t = Instant::now();
                        index.write_batch(wb)?;
                        let ns = t.elapsed().as_nanos() as u64;
                        hist.record(ns);
                        observe(RequestKind::Put, ns);
                        applied += n;
                        left -= n;
                    }
                }
                Ok((hist, applied))
            }));
        }
        let mut reader_handles = Vec::with_capacity(plan.readers);
        for r in 0..plan.readers as u64 {
            let read_key = &read_key;
            let observe = &observe;
            reader_handles.push(s.spawn(move || -> Result<LatencyHistogram> {
                let mut hist = LatencyHistogram::new();
                for i in 0..plan.reads_per_reader {
                    let key = read_key(r, i);
                    let t = Instant::now();
                    index.get(key)?;
                    let ns = t.elapsed().as_nanos() as u64;
                    hist.record(ns);
                    observe(RequestKind::Get, ns);
                }
                Ok(hist)
            }));
        }
        for h in writer_handles {
            let (hist, applied) = h.join().expect("writer thread panicked")?;
            writes += applied;
            write_hists.push(hist);
        }
        for h in reader_handles {
            read_hists.push(h.join().expect("reader thread panicked")?);
        }
        Ok(())
    })?;
    let elapsed = t0.elapsed();
    let mut write_latency_ns = LatencyHistogram::new();
    for h in &write_hists {
        write_latency_ns.merge(h);
    }
    let mut read_latency_ns = LatencyHistogram::new();
    for h in &read_hists {
        read_latency_ns.merge(h);
    }
    Ok(ClosedLoopReport {
        elapsed,
        writes,
        reads: read_latency_ns.count(),
        write_latency_ns,
        read_latency_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{payload_for, Uniform};
    use lsm_tree::{LsmConfig, TreeOptions};

    fn small_cfg() -> LsmConfig {
        LsmConfig {
            block_size: 256,
            payload_size: 4,
            k0_blocks: 4,
            gamma: 4,
            cache_blocks: 64,
            merge_rate: 0.25,
            ..LsmConfig::default()
        }
    }

    const DOMAIN: u64 = 1 << 20;

    fn plan() -> ThreadPlan {
        ThreadPlan {
            writers: 3,
            readers: 2,
            requests_per_writer: 1_500,
            reads_per_reader: 1_000,
            batch: 1,
        }
    }

    fn drive(index: &ShardedLsmTree) -> ClosedLoopReport {
        run_closed_loop(
            index,
            plan(),
            |w| {
                OffsetKeys::new(
                    Uniform::new(100 + w as u64, DOMAIN, 4, InsertRatio::INSERT_ONLY),
                    w as u64 * DOMAIN,
                )
            },
            |r, i| (r * 7 + i * 13) % DOMAIN,
        )
        .unwrap()
    }

    #[test]
    fn closed_loop_drives_one_lock_and_one_lock_per_shard() {
        for shards in [1, 4] {
            let opts = TreeOptions::default();
            let t = ShardedLsmTree::with_mem_devices(small_cfg(), opts, shards, 1 << 16).unwrap();
            let r = drive(&t);
            assert_eq!(r.writes, 4_500);
            assert_eq!(r.reads, 2_000);
            assert_eq!(r.write_latency_ns.count(), 4_500);
            assert!(r.write_ops_per_sec() > 0.0);
            assert!(r.write_latency_ns.quantile(0.99) >= r.write_latency_ns.quantile(0.5));
            let s = t.stats();
            assert_eq!(s.puts, 4_500);
            assert_eq!(s.lookups(), 2_000);
            t.deep_verify(true).unwrap();
        }
    }

    #[test]
    fn batched_writes_apply_every_request() {
        let t = ShardedLsmTree::with_mem_devices(small_cfg(), TreeOptions::default(), 4, 1 << 16)
            .unwrap();
        let r = run_closed_loop(
            &t,
            plan().with_batch(64),
            |w| {
                OffsetKeys::new(
                    Uniform::new(100 + w as u64, DOMAIN, 4, InsertRatio::INSERT_ONLY),
                    w as u64 * DOMAIN,
                )
            },
            |r, i| (r * 7 + i * 13) % DOMAIN,
        )
        .unwrap();
        assert_eq!(r.writes, 4_500);
        // One latency sample per batch: ceil(1500/64) per writer.
        assert_eq!(r.write_latency_ns.count(), 3 * 24);
        assert_eq!(t.stats().puts, 4_500);
        t.deep_verify(true).unwrap();
    }

    #[test]
    fn offset_keys_shift_the_whole_range() {
        let mut w = OffsetKeys::new(Uniform::new(1, 1000, 4, InsertRatio::INSERT_ONLY), 50_000);
        for _ in 0..200 {
            match w.next_request() {
                Request::Put(k, p) => {
                    assert!((50_000..51_000).contains(&k));
                    // The payload is derived from the *unshifted* key — the
                    // inner generator built the request before the shift.
                    assert_eq!(p, payload_for(k - 50_000, 4));
                }
                Request::Delete(k) => assert!((50_000..51_000).contains(&k)),
            }
        }
    }
}
