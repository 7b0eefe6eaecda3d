//! Deterministic, scriptable fault injection.
//!
//! [`FaultDevice`] decorates any [`BlockDevice`] (memory- or file-backed)
//! and executes a [`FaultPlan`]: transient read/write/sync errors fired by
//! probability or at scheduled operation counts, trims of named blocks that
//! fail every time, bit-flip corruption that a
//! later read reports as [`DeviceError::Corrupt`] (modelling per-frame ECC),
//! torn writes where only a prefix of the frame lands, dropped syncs where
//! the device *acks* durability it did not provide, and a power cut that
//! discards every write since the last successful sync and leaves the device
//! read-only until power is restored.
//!
//! Determinism: every fault decision is a pure function of the plan, the
//! seed, and the sequence of operations issued — never of wall time, thread
//! scheduling, or the wrapped device. The same seed and plan produce the
//! same fault sequence whether the inner device is a [`crate::MemDevice`]
//! or a [`crate::FileDevice`].
//!
//! Buffering model: writes and trims are staged in an in-memory overlay and
//! only reach the inner device on a successful [`BlockDevice::sync`]. The
//! inner device therefore always holds exactly the *durable* image, which
//! is what a [`FaultDevice::power_cut`] exposes.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use observe::{Event, FaultEventKind, SinkCell, SinkHandle};
use parking_lot::Mutex;

use crate::device::{BlockDevice, BlockId};
use crate::error::{DeviceError, FaultKind, Result};
use crate::stats::{IoSnapshot, IoStats};

/// SplitMix64 — a tiny, high-quality, seedable PRNG.
///
/// Hand-rolled so the crate stays dependency-free; used for all probabilistic
/// fault decisions and exported for test harnesses that need reproducible
/// workloads without pulling in a full `rand` stack.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed the generator. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`. `n` must be non-zero.
    pub fn gen_range(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Bernoulli draw with probability `p`. Always consumes one draw, so the
    /// stream position depends only on how many decisions were made, not on
    /// their outcomes.
    pub fn chance(&mut self, p: f64) -> bool {
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }
}

/// A script of faults for a [`FaultDevice`].
///
/// All rates are probabilities in `[0, 1]` evaluated independently per
/// operation; scheduled sets name the *n-th operation of that type* issued
/// after the plan was installed (1 = the very next one). The default plan
/// injects nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Probability that a read fails transiently.
    pub read_error_rate: f64,
    /// Probability that a write fails transiently (nothing lands).
    pub write_error_rate: f64,
    /// Probability that a sync fails transiently (overlay kept, not flushed).
    pub sync_error_rate: f64,
    /// Probability that a sync is silently dropped: the device returns `Ok`
    /// but flushes nothing. The device *lies*; no error surfaces.
    pub drop_sync_rate: f64,
    /// Probability that a write is acked `Ok` but a bit of the stored frame
    /// is flipped; the flip is reported as [`DeviceError::Corrupt`] when the
    /// frame is next read (per-frame ECC model).
    pub bit_flip_rate: f64,
    /// Probability that a write tears: only a random prefix of the frame
    /// lands (the rest zeroed), the frame is marked corrupt, and the write
    /// returns a transient error.
    pub torn_write_rate: f64,
    /// Read ordinals (1-based, per-type, since plan install) that must fail.
    pub fail_read_at: BTreeSet<u64>,
    /// Write ordinals (1-based, per-type, since plan install) that must fail.
    pub fail_write_at: BTreeSet<u64>,
    /// Raw block ids whose trim fails every time while the plan is
    /// installed: retrying does not help.
    pub fail_trim_of: BTreeSet<u64>,
    /// Cut power the moment the global device-op counter (reads + writes +
    /// trims + syncs) reaches this value. Fires once.
    pub power_cut_at: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Set the transient read-error probability.
    pub fn read_error_rate(mut self, p: f64) -> Self {
        self.read_error_rate = p;
        self
    }

    /// Set the transient write-error probability.
    pub fn write_error_rate(mut self, p: f64) -> Self {
        self.write_error_rate = p;
        self
    }

    /// Set the transient sync-error probability.
    pub fn sync_error_rate(mut self, p: f64) -> Self {
        self.sync_error_rate = p;
        self
    }

    /// Set the silent dropped-sync probability.
    pub fn drop_sync_rate(mut self, p: f64) -> Self {
        self.drop_sync_rate = p;
        self
    }

    /// Set the silent bit-flip probability.
    pub fn bit_flip_rate(mut self, p: f64) -> Self {
        self.bit_flip_rate = p;
        self
    }

    /// Set the torn-write probability.
    pub fn torn_write_rate(mut self, p: f64) -> Self {
        self.torn_write_rate = p;
        self
    }

    /// Fail the `nth` read (1 = the next read) issued after plan install.
    pub fn fail_read_at(mut self, nth: u64) -> Self {
        assert!(nth >= 1);
        self.fail_read_at.insert(nth);
        self
    }

    /// Fail the `nth` write (1 = the next write) issued after plan install.
    pub fn fail_write_at(mut self, nth: u64) -> Self {
        assert!(nth >= 1);
        self.fail_write_at.insert(nth);
        self
    }

    /// Fail every trim of block `id`.
    pub fn fail_trim_of(mut self, id: u64) -> Self {
        self.fail_trim_of.insert(id);
        self
    }

    /// Cut power at the given global device-op count.
    pub fn power_cut_at(mut self, op: u64) -> Self {
        self.power_cut_at = Some(op);
        self
    }
}

/// A write or trim staged in the overlay since the last successful sync.
#[derive(Debug, Clone)]
enum OverlayEntry {
    Written { bytes: Bytes, corrupt: bool },
    Trimmed,
}

/// Deterministic fault-injecting decorator over any [`BlockDevice`].
///
/// See the [module docs](self) for the fault and buffering model. Operation
/// counters, fault decisions, and the staged-write overlay all live in the
/// decorator, so the wrapped device only ever sees clean, durable traffic.
pub struct FaultDevice {
    inner: Arc<dyn BlockDevice>,
    plan: Mutex<FaultPlan>,
    rng: Mutex<SplitMix64>,
    /// Global device-op counter: reads + writes + trims + syncs.
    ops: AtomicU64,
    /// Per-type ordinals for scheduled faults, reset on `set_plan`.
    reads_seen: AtomicU64,
    writes_seen: AtomicU64,
    powered_off: AtomicBool,
    /// Writes/trims since the last successful sync, keyed by raw block id.
    overlay: Mutex<BTreeMap<u64, OverlayEntry>>,
    /// Flushed frames whose stored bits are bad (ECC fires on read).
    durable_corrupt: Mutex<BTreeSet<u64>>,
    stats: IoStats,
    sink: SinkCell,
}

impl FaultDevice {
    /// Wrap `inner` with an empty plan (no faults) and the given seed.
    pub fn new(inner: Arc<dyn BlockDevice>, seed: u64) -> Self {
        Self::with_plan(inner, seed, FaultPlan::none())
    }

    /// Wrap `inner` and start executing `plan` immediately.
    pub fn with_plan(inner: Arc<dyn BlockDevice>, seed: u64, plan: FaultPlan) -> Self {
        FaultDevice {
            inner,
            plan: Mutex::new(plan),
            rng: Mutex::new(SplitMix64::new(seed)),
            ops: AtomicU64::new(0),
            reads_seen: AtomicU64::new(0),
            writes_seen: AtomicU64::new(0),
            powered_off: AtomicBool::new(false),
            overlay: Mutex::new(BTreeMap::new()),
            durable_corrupt: Mutex::new(BTreeSet::new()),
            stats: IoStats::new(),
            sink: SinkCell::new(),
        }
    }

    /// The wrapped device. After a [`FaultDevice::power_cut`] it holds
    /// exactly the durable image (everything synced, nothing since).
    pub fn inner(&self) -> Arc<dyn BlockDevice> {
        Arc::clone(&self.inner)
    }

    /// Install a new plan. Per-type scheduled-fault ordinals restart at 1;
    /// the RNG stream continues (reseed by constructing a new device).
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.lock() = plan;
        self.reads_seen.store(0, Ordering::SeqCst);
        self.writes_seen.store(0, Ordering::SeqCst);
    }

    /// Cut power now: every write or trim since the last successful sync is
    /// discarded, and the device rejects every further op — reads included
    /// — until [`FaultDevice::restore_power`]. Serving reads from the
    /// durable image while "off" would let a still-running host observe
    /// time travel: a block it wrote (and read back) moments ago suddenly
    /// reverting to pre-sync content mid-operation. After
    /// [`FaultDevice::restore_power`] ("reboot") reads see the durable
    /// image, which [`FaultDevice::inner`] also exposes directly.
    pub fn power_cut(&self) {
        if !self.powered_off.swap(true, Ordering::SeqCst) {
            self.overlay.lock().clear();
            self.plan.lock().power_cut_at = None;
            let op = self.ops.load(Ordering::SeqCst);
            self.sink.emit_with(|| Event::FaultInjected { kind: FaultEventKind::PowerCut, op });
        }
    }

    /// Power the device back on ("reboot"). The overlay stays empty; state
    /// is whatever survived on the inner device.
    pub fn restore_power(&self) {
        self.powered_off.store(false, Ordering::SeqCst);
    }

    /// Whether a power cut is in effect.
    pub fn is_powered_off(&self) -> bool {
        self.powered_off.load(Ordering::SeqCst)
    }

    /// Global device-op count so far (reads + writes + trims + syncs).
    pub fn ops_issued(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Number of staged (unsynced) writes/trims currently in the overlay.
    pub fn unsynced_ops(&self) -> usize {
        self.overlay.lock().len()
    }

    /// Bump the global op counter and fire a pending scheduled power cut.
    /// Returns the 1-based index of this operation.
    fn tick(&self) -> u64 {
        let op = self.ops.fetch_add(1, Ordering::SeqCst) + 1;
        let cut = self.plan.lock().power_cut_at;
        if let Some(n) = cut {
            if op >= n {
                self.power_cut();
            }
        }
        op
    }

    fn fire(&self, kind: FaultEventKind, op: u64) {
        self.sink.emit_with(|| Event::FaultInjected { kind, op });
    }

    fn check_range(&self, id: BlockId) -> Result<()> {
        let cap = self.inner.capacity();
        if id.0 >= cap {
            return Err(DeviceError::OutOfRange { block: id.0, capacity: cap });
        }
        Ok(())
    }
}

impl BlockDevice for FaultDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn read(&self, id: BlockId) -> Result<Bytes> {
        let op = self.tick();
        if self.powered_off.load(Ordering::SeqCst) {
            return Err(DeviceError::Injected { kind: FaultKind::PowerCut, op });
        }
        self.check_range(id)?;
        let nth = self.reads_seen.fetch_add(1, Ordering::SeqCst) + 1;
        {
            let plan = self.plan.lock();
            if plan.fail_read_at.contains(&nth) || self.rng.lock().chance(plan.read_error_rate) {
                self.fire(FaultEventKind::ReadError, op);
                return Err(DeviceError::Injected { kind: FaultKind::Read, op });
            }
        }
        let staged = self.overlay.lock().get(&id.0).cloned();
        let frame = match staged {
            Some(OverlayEntry::Trimmed) => return Err(DeviceError::Unwritten(id.0)),
            Some(OverlayEntry::Written { corrupt: true, .. }) => {
                return Err(DeviceError::Corrupt(id.0));
            }
            Some(OverlayEntry::Written { bytes, .. }) => bytes,
            None => {
                if self.durable_corrupt.lock().contains(&id.0) {
                    return Err(DeviceError::Corrupt(id.0));
                }
                self.inner.read(id)?
            }
        };
        self.stats.record_read();
        self.sink.emit_with(|| Event::DeviceRead { block: id.0 });
        Ok(frame)
    }

    fn write(&self, id: BlockId, frame: &[u8]) -> Result<()> {
        let op = self.tick();
        if self.powered_off.load(Ordering::SeqCst) {
            return Err(DeviceError::Injected { kind: FaultKind::PowerCut, op });
        }
        self.check_range(id)?;
        if frame.len() != self.block_size() {
            return Err(DeviceError::BadFrameSize {
                got: frame.len(),
                expected: self.block_size(),
            });
        }
        let nth = self.writes_seen.fetch_add(1, Ordering::SeqCst) + 1;
        let (scheduled, error_rate, torn_rate, flip_rate) = {
            let plan = self.plan.lock();
            (
                plan.fail_write_at.contains(&nth),
                plan.write_error_rate,
                plan.torn_write_rate,
                plan.bit_flip_rate,
            )
        };
        // Fixed decision order so the RNG stream is a pure function of the
        // plan and the op sequence.
        let mut rng = self.rng.lock();
        if scheduled || rng.chance(error_rate) {
            drop(rng);
            self.fire(FaultEventKind::WriteError, op);
            return Err(DeviceError::Injected { kind: FaultKind::Write, op });
        }
        if rng.chance(torn_rate) {
            // Only a prefix lands; the torn frame is staged as corrupt and
            // the caller sees a transient failure it may retry.
            let keep = rng.gen_range(frame.len() as u64) as usize;
            drop(rng);
            let mut bytes = frame.to_vec();
            for b in bytes[keep..].iter_mut() {
                *b = 0;
            }
            self.overlay
                .lock()
                .insert(id.0, OverlayEntry::Written { bytes: Bytes::from(bytes), corrupt: true });
            self.stats.record_write();
            self.fire(FaultEventKind::TornWrite, op);
            return Err(DeviceError::Injected { kind: FaultKind::Write, op });
        }
        let flipped = rng.chance(flip_rate);
        let flip_bit = if flipped { rng.gen_range(frame.len() as u64 * 8) } else { 0 };
        drop(rng);
        let bytes = if flipped {
            let mut bad = frame.to_vec();
            bad[(flip_bit / 8) as usize] ^= 1 << (flip_bit % 8);
            Bytes::from(bad)
        } else {
            Bytes::copy_from_slice(frame)
        };
        self.overlay.lock().insert(id.0, OverlayEntry::Written { bytes, corrupt: flipped });
        self.stats.record_write();
        if flipped {
            self.fire(FaultEventKind::BitFlip, op);
        }
        self.sink.emit_with(|| Event::DeviceWrite { block: id.0 });
        Ok(())
    }

    fn trim(&self, id: BlockId) -> Result<()> {
        let op = self.tick();
        if self.powered_off.load(Ordering::SeqCst) {
            return Err(DeviceError::Injected { kind: FaultKind::PowerCut, op });
        }
        self.check_range(id)?;
        if self.plan.lock().fail_trim_of.contains(&id.0) {
            return Err(DeviceError::Injected { kind: FaultKind::Trim, op });
        }
        self.overlay.lock().insert(id.0, OverlayEntry::Trimmed);
        self.stats.record_trim();
        self.sink.emit_with(|| Event::DeviceTrim { block: id.0 });
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        let op = self.tick();
        if self.powered_off.load(Ordering::SeqCst) {
            return Err(DeviceError::Injected { kind: FaultKind::PowerCut, op });
        }
        let (drop_rate, err_rate) = {
            let plan = self.plan.lock();
            (plan.drop_sync_rate, plan.sync_error_rate)
        };
        let mut rng = self.rng.lock();
        if rng.chance(drop_rate) {
            // The device lies: acks durability, flushes nothing.
            drop(rng);
            self.stats.record_sync();
            self.fire(FaultEventKind::DroppedSync, op);
            self.sink.emit_with(|| Event::DeviceSync);
            return Ok(());
        }
        if rng.chance(err_rate) {
            drop(rng);
            self.fire(FaultEventKind::SyncError, op);
            return Err(DeviceError::Injected { kind: FaultKind::Sync, op });
        }
        drop(rng);
        let staged: Vec<(u64, OverlayEntry)> = {
            let mut overlay = self.overlay.lock();
            std::mem::take(&mut *overlay).into_iter().collect()
        };
        let mut durable_corrupt = self.durable_corrupt.lock();
        for (raw, entry) in staged {
            match entry {
                OverlayEntry::Written { bytes, corrupt } => {
                    self.inner.write(BlockId(raw), &bytes)?;
                    if corrupt {
                        durable_corrupt.insert(raw);
                    } else {
                        durable_corrupt.remove(&raw);
                    }
                }
                OverlayEntry::Trimmed => {
                    self.inner.trim(BlockId(raw))?;
                    durable_corrupt.remove(&raw);
                }
            }
        }
        drop(durable_corrupt);
        self.inner.sync()?;
        self.stats.record_sync();
        self.sink.emit_with(|| Event::DeviceSync);
        Ok(())
    }

    fn io_snapshot(&self) -> IoSnapshot {
        self.stats.snapshot()
    }

    fn set_sink(&self, sink: SinkHandle) {
        self.sink.set(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::FileDevice;
    use crate::mem::MemDevice;

    fn mem(cap: u64, bs: usize) -> Arc<dyn BlockDevice> {
        Arc::new(MemDevice::with_block_size(cap, bs))
    }

    fn frame(dev: &FaultDevice, fill: u8) -> Vec<u8> {
        vec![fill; dev.block_size()]
    }

    #[test]
    fn transparent_when_plan_is_empty() {
        let dev = FaultDevice::new(mem(8, 64), 1);
        let f = frame(&dev, 0xAB);
        dev.write(BlockId(3), &f).unwrap();
        assert_eq!(&dev.read(BlockId(3)).unwrap()[..], &f[..]);
        dev.trim(BlockId(3)).unwrap();
        assert!(matches!(dev.read(BlockId(3)), Err(DeviceError::Unwritten(3))));
        dev.sync().unwrap();
    }

    #[test]
    fn scheduled_write_fault_fires_once() {
        let dev = FaultDevice::with_plan(mem(4, 64), 1, FaultPlan::none().fail_write_at(2));
        let f = frame(&dev, 0);
        dev.write(BlockId(0), &f).unwrap();
        assert!(matches!(
            dev.write(BlockId(1), &f),
            Err(DeviceError::Injected { kind: FaultKind::Write, .. })
        ));
        dev.write(BlockId(1), &f).unwrap();
    }

    #[test]
    fn rate_one_fails_every_write_until_plan_cleared() {
        let dev = FaultDevice::with_plan(mem(4, 64), 1, FaultPlan::none().write_error_rate(1.0));
        let f = frame(&dev, 0);
        assert!(dev.write(BlockId(0), &f).is_err());
        assert!(dev.write(BlockId(0), &f).is_err());
        dev.set_plan(FaultPlan::none());
        dev.write(BlockId(0), &f).unwrap();
    }

    #[test]
    fn scheduled_read_fault_is_transient() {
        let dev = FaultDevice::with_plan(mem(4, 64), 1, FaultPlan::none().fail_read_at(1));
        let f = frame(&dev, 7);
        dev.write(BlockId(0), &f).unwrap();
        let err = dev.read(BlockId(0)).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(&dev.read(BlockId(0)).unwrap()[..], &f[..]);
    }

    #[test]
    fn writes_reach_inner_only_after_sync() {
        let inner = Arc::new(MemDevice::with_block_size(4, 64));
        let dev = FaultDevice::new(Arc::clone(&inner) as _, 1);
        let f = frame(&dev, 0x11);
        dev.write(BlockId(2), &f).unwrap();
        assert!(matches!(inner.read(BlockId(2)), Err(DeviceError::Unwritten(2))));
        assert_eq!(&dev.read(BlockId(2)).unwrap()[..], &f[..]); // visible through overlay
        dev.sync().unwrap();
        assert_eq!(&inner.read(BlockId(2)).unwrap()[..], &f[..]);
    }

    #[test]
    fn power_cut_discards_unsynced_writes_and_blocks_mutation() {
        let inner = Arc::new(MemDevice::with_block_size(4, 64));
        let dev = FaultDevice::new(Arc::clone(&inner) as _, 1);
        let a = frame(&dev, 0xAA);
        let b = frame(&dev, 0xBB);
        dev.write(BlockId(0), &a).unwrap();
        dev.sync().unwrap();
        dev.write(BlockId(1), &b).unwrap();
        dev.power_cut();
        // The device is dead: every op fails until power is restored.
        let rerr = dev.read(BlockId(0)).unwrap_err();
        assert!(matches!(rerr, DeviceError::Injected { kind: FaultKind::PowerCut, .. }));
        let werr = dev.write(BlockId(2), &a).unwrap_err();
        assert!(matches!(werr, DeviceError::Injected { kind: FaultKind::PowerCut, .. }));
        assert!(!werr.is_transient());
        assert!(dev.sync().is_err());
        // After the "reboot": synced data survives, unsynced is gone.
        dev.restore_power();
        assert_eq!(&dev.read(BlockId(0)).unwrap()[..], &a[..]);
        assert!(matches!(dev.read(BlockId(1)), Err(DeviceError::Unwritten(1))));
        dev.write(BlockId(1), &b).unwrap();
        dev.sync().unwrap();
        assert_eq!(&inner.read(BlockId(1)).unwrap()[..], &b[..]);
    }

    #[test]
    fn scheduled_power_cut_fires_at_op_count() {
        let plan = FaultPlan::none().power_cut_at(3);
        let dev = FaultDevice::with_plan(mem(4, 64), 1, plan);
        let f = frame(&dev, 1);
        dev.write(BlockId(0), &f).unwrap(); // op 1
        dev.sync().unwrap(); // op 2
        assert!(dev.write(BlockId(1), &f).is_err()); // op 3: cut fires
        assert!(dev.is_powered_off());
        assert!(dev.read(BlockId(0)).is_err());
        dev.restore_power();
        assert_eq!(&dev.read(BlockId(0)).unwrap()[..], &f[..]);
    }

    #[test]
    fn bit_flip_surfaces_as_corrupt_read() {
        let dev = FaultDevice::with_plan(mem(4, 64), 7, FaultPlan::none().bit_flip_rate(1.0));
        let f = frame(&dev, 0x42);
        dev.write(BlockId(0), &f).unwrap(); // acked Ok, silently flipped
        assert!(matches!(dev.read(BlockId(0)), Err(DeviceError::Corrupt(0))));
        dev.set_plan(FaultPlan::none());
        dev.sync().unwrap();
        // Corruption is durable: still detected after the flush.
        assert!(matches!(dev.read(BlockId(0)), Err(DeviceError::Corrupt(0))));
        // Rewriting the frame heals it.
        dev.write(BlockId(0), &f).unwrap();
        dev.sync().unwrap();
        assert_eq!(&dev.read(BlockId(0)).unwrap()[..], &f[..]);
    }

    #[test]
    fn torn_write_fails_and_marks_frame_corrupt() {
        let dev = FaultDevice::with_plan(mem(4, 64), 3, FaultPlan::none().torn_write_rate(1.0));
        let f = frame(&dev, 0x55);
        let err = dev.write(BlockId(0), &f).unwrap_err();
        assert!(err.is_transient());
        assert!(matches!(dev.read(BlockId(0)), Err(DeviceError::Corrupt(0))));
        // A retried (clean) write replaces the torn frame.
        dev.set_plan(FaultPlan::none());
        dev.write(BlockId(0), &f).unwrap();
        assert_eq!(&dev.read(BlockId(0)).unwrap()[..], &f[..]);
    }

    #[test]
    fn dropped_sync_acks_without_flushing() {
        let inner = Arc::new(MemDevice::with_block_size(4, 64));
        let dev = FaultDevice::with_plan(
            Arc::clone(&inner) as _,
            9,
            FaultPlan::none().drop_sync_rate(1.0),
        );
        let f = frame(&dev, 0x77);
        dev.write(BlockId(0), &f).unwrap();
        dev.sync().unwrap(); // lies
        assert!(matches!(inner.read(BlockId(0)), Err(DeviceError::Unwritten(0))));
        assert_eq!(dev.unsynced_ops(), 1);
    }

    #[test]
    fn failed_sync_keeps_overlay_for_retry() {
        let inner = Arc::new(MemDevice::with_block_size(4, 64));
        let dev = FaultDevice::with_plan(
            Arc::clone(&inner) as _,
            9,
            FaultPlan::none().sync_error_rate(1.0),
        );
        let f = frame(&dev, 0x77);
        dev.write(BlockId(0), &f).unwrap();
        let err = dev.sync().unwrap_err();
        assert!(err.is_transient());
        dev.set_plan(FaultPlan::none());
        dev.sync().unwrap();
        assert_eq!(&inner.read(BlockId(0)).unwrap()[..], &f[..]);
    }

    /// Drive an identical op sequence against a device and record which ops
    /// fault, with what kind.
    fn fault_trace(dev: &FaultDevice) -> Vec<(u64, &'static str)> {
        let f = vec![0x5Au8; dev.block_size()];
        let mut trace = Vec::new();
        let mut record = |op: u64, r: &Result<()>| {
            if let Err(e) = r {
                let tag = match e {
                    DeviceError::Injected { kind, .. } => kind.name(),
                    DeviceError::Corrupt(_) => "corrupt",
                    _ => "other",
                };
                trace.push((op, tag));
            }
        };
        for i in 0..40u64 {
            match i % 4 {
                0 | 1 => record(i, &dev.write(BlockId(i % 4), &f)),
                2 => record(i, &dev.read(BlockId(i % 4 - 2)).map(|_| ())),
                _ => record(i, &dev.sync()),
            }
        }
        trace
    }

    #[test]
    fn same_seed_and_plan_give_identical_faults_on_mem_and_file() {
        let plan = FaultPlan::none()
            .read_error_rate(0.3)
            .write_error_rate(0.3)
            .bit_flip_rate(0.2)
            .torn_write_rate(0.2)
            .sync_error_rate(0.25);
        for seed in [1u64, 2, 3, 42, 1234] {
            let m = FaultDevice::with_plan(mem(8, 128), seed, plan.clone());
            let path = std::env::temp_dir()
                .join(format!("sim-ssd-fault-det-{}-{seed}", std::process::id()));
            let file: Arc<dyn BlockDevice> =
                Arc::new(FileDevice::create_with_block_size(&path, 8, 128).unwrap());
            let f = FaultDevice::with_plan(file, seed, plan.clone());
            assert_eq!(fault_trace(&m), fault_trace(&f), "seed {seed} diverged");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn different_seeds_give_different_fault_sequences() {
        let plan = FaultPlan::none().write_error_rate(0.5);
        let a = FaultDevice::with_plan(mem(8, 128), 1, plan.clone());
        let b = FaultDevice::with_plan(mem(8, 128), 2, plan);
        assert_ne!(fault_trace(&a), fault_trace(&b));
    }

    #[test]
    fn range_and_frame_checks_precede_fault_draws() {
        let dev = FaultDevice::with_plan(mem(2, 64), 1, FaultPlan::none().write_error_rate(1.0));
        assert!(matches!(dev.write(BlockId(9), &[0u8; 64]), Err(DeviceError::OutOfRange { .. })));
        assert!(matches!(dev.write(BlockId(0), &[0u8; 3]), Err(DeviceError::BadFrameSize { .. })));
    }
}
