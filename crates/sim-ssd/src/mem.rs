//! In-memory simulated SSD.
//!
//! [`MemDevice`] stores frames in RAM and counts every operation. It also
//! keeps a per-block *wear* counter (number of program operations), which
//! lets experiments report the write-amplification and wear-levelling
//! consequences of a merge policy — the motivation the paper gives for
//! minimizing writes on SSDs (§I: writes "have a wear effect on SSDs, which
//! decreases drive life").

use bytes::Bytes;
use observe::{Event, SinkCell, SinkHandle};
use parking_lot::{Mutex, RwLock};

use crate::device::{BlockDevice, BlockId, DEFAULT_BLOCK_SIZE};
use crate::error::{DeviceError, Result};
use crate::stats::{IoSnapshot, IoStats};

/// An in-memory block device with exact accounting and wear tracking.
///
/// Fault injection is not built in: wrap the device in a
/// [`crate::FaultDevice`] to script failures.
pub struct MemDevice {
    block_size: usize,
    frames: RwLock<Vec<Option<Bytes>>>,
    wear: Mutex<Vec<u32>>,
    stats: IoStats,
    sink: SinkCell,
}

impl MemDevice {
    /// Create a device of `capacity` blocks with the default 4 KiB frames.
    pub fn new(capacity: u64) -> Self {
        Self::with_block_size(capacity, DEFAULT_BLOCK_SIZE)
    }

    /// Create a device with a custom frame size (tests use tiny frames).
    pub fn with_block_size(capacity: u64, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        MemDevice {
            block_size,
            frames: RwLock::new(vec![None; capacity as usize]),
            wear: Mutex::new(vec![0; capacity as usize]),
            stats: IoStats::new(),
            sink: SinkCell::new(),
        }
    }

    /// Wear (program count) of one block.
    pub fn wear_of(&self, id: BlockId) -> u32 {
        self.wear.lock()[id.0 as usize]
    }

    /// Copy of the whole per-block wear vector, frozen at call time —
    /// the raw material for post-mortem wear histograms and heatmaps
    /// (see [`WearSnapshot`]).
    pub fn wear_snapshot(&self) -> WearSnapshot {
        WearSnapshot { wear: self.wear.lock().clone() }
    }

    /// Summary of wear across the device: (max, mean over worn blocks,
    /// number of blocks ever programmed).
    pub fn wear_summary(&self) -> WearSummary {
        let wear = self.wear.lock();
        let mut max = 0u32;
        let mut sum = 0u64;
        let mut worn = 0u64;
        for &w in wear.iter() {
            if w > 0 {
                worn += 1;
                sum += u64::from(w);
                max = max.max(w);
            }
        }
        WearSummary { max_wear: max, total_programs: sum, blocks_touched: worn }
    }

    /// Order-independent digest of the device image: every written frame's
    /// index and contents, FNV-1a-folded. Two devices that hold the same
    /// frames (written blocks with the same bytes, the same blocks
    /// unwritten) digest equally regardless of operation history — the
    /// primitive behind the observer-effect and crash-twin comparisons.
    pub fn image_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf29ce484222325;
        const FNV_PRIME: u64 = 0x100000001b3;
        let frames = self.frames.read();
        let mut acc = 0u64;
        for (idx, frame) in frames.iter().enumerate() {
            let Some(frame) = frame else { continue };
            let mut h = FNV_OFFSET;
            for byte in (idx as u64).to_le_bytes().into_iter().chain(frame.iter().copied()) {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
            // XOR-fold per frame: commutative, so iteration order is moot.
            acc ^= h;
        }
        acc
    }

    fn check_range(&self, id: BlockId) -> Result<usize> {
        let cap = self.capacity();
        if id.0 >= cap {
            return Err(DeviceError::OutOfRange { block: id.0, capacity: cap });
        }
        Ok(id.0 as usize)
    }

    /// One program operation: validate, store the frame, count it.
    fn program(&self, id: BlockId, len: usize, frame: impl FnOnce() -> Bytes) -> Result<()> {
        let idx = self.check_range(id)?;
        if len != self.block_size {
            return Err(DeviceError::BadFrameSize { got: len, expected: self.block_size });
        }
        self.frames.write()[idx] = Some(frame());
        self.wear.lock()[idx] += 1;
        self.stats.record_write();
        self.sink.emit_with(|| Event::DeviceWrite { block: id.0 });
        Ok(())
    }
}

/// Aggregate wear numbers for a [`MemDevice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WearSummary {
    /// Highest program count of any single block.
    pub max_wear: u32,
    /// Total program operations across the device.
    pub total_programs: u64,
    /// Number of distinct blocks ever programmed.
    pub blocks_touched: u64,
}

/// Frozen per-block wear vector of a [`MemDevice`], taken with
/// [`MemDevice::wear_snapshot`].
///
/// Post-mortem bundles render it two ways: a [`WearSnapshot::histogram`]
/// of program counts over every block (untouched blocks included, so the
/// distribution shows how much of the device the workload never reached),
/// and a downsampled [`WearSnapshot::heatmap`] that keeps the bundle
/// bounded no matter how large the device is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WearSnapshot {
    wear: Vec<u32>,
}

/// One cell of a downsampled wear heatmap: a contiguous range of blocks
/// reduced to its hottest and average wear.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearCell {
    /// First block id the cell covers.
    pub start: u64,
    /// Number of blocks in the cell.
    pub blocks: u64,
    /// Highest program count within the cell.
    pub max: u32,
    /// Mean program count within the cell.
    pub mean: f64,
}

impl WearSnapshot {
    /// Number of blocks on the device.
    pub fn blocks(&self) -> u64 {
        self.wear.len() as u64
    }

    /// Wear of one block (0 for ids beyond the device).
    pub fn wear_of(&self, block: u64) -> u32 {
        self.wear.get(block as usize).copied().unwrap_or(0)
    }

    /// Program counts of every block folded into an
    /// [`observe::Histogram`] — untouched blocks record 0.
    pub fn histogram(&self) -> observe::Histogram {
        let mut h = observe::Histogram::new();
        for &w in &self.wear {
            h.record(u64::from(w));
        }
        h
    }

    /// Downsample into at most `cells` contiguous cells (at least 1),
    /// each carrying its max and mean wear. The last cell may be shorter
    /// when the device size is not a multiple of the cell width.
    pub fn heatmap(&self, cells: usize) -> Vec<WearCell> {
        if self.wear.is_empty() {
            return Vec::new();
        }
        let cells = cells.max(1).min(self.wear.len());
        let width = self.wear.len().div_ceil(cells);
        self.wear
            .chunks(width)
            .enumerate()
            .map(|(i, chunk)| {
                let max = chunk.iter().copied().max().unwrap_or(0);
                let sum: u64 = chunk.iter().map(|&w| u64::from(w)).sum();
                WearCell {
                    start: (i * width) as u64,
                    blocks: chunk.len() as u64,
                    max,
                    mean: sum as f64 / chunk.len() as f64,
                }
            })
            .collect()
    }

    /// Render as one JSON object: totals, the wear histogram's summary
    /// statistics, and a heatmap of at most `cells` cells.
    pub fn to_json(&self, cells: usize) -> observe::Json {
        use observe::Json;
        let mut max = 0u32;
        let mut total = 0u64;
        let mut touched = 0u64;
        for &w in &self.wear {
            if w > 0 {
                touched += 1;
                total += u64::from(w);
                max = max.max(w);
            }
        }
        Json::obj([
            ("blocks", Json::from(self.blocks())),
            ("max_wear", Json::from(max)),
            ("total_programs", Json::from(total)),
            ("blocks_touched", Json::from(touched)),
            ("histogram", self.histogram().to_json()),
            (
                "heatmap",
                Json::arr(self.heatmap(cells).into_iter().map(|c| {
                    Json::obj([
                        ("start", Json::from(c.start)),
                        ("blocks", Json::from(c.blocks)),
                        ("max", Json::from(c.max)),
                        ("mean", Json::from(c.mean)),
                    ])
                })),
            ),
        ])
    }
}

impl BlockDevice for MemDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn capacity(&self) -> u64 {
        self.frames.read().len() as u64
    }

    fn read(&self, id: BlockId) -> Result<Bytes> {
        let idx = self.check_range(id)?;
        let frames = self.frames.read();
        let frame = frames[idx].clone().ok_or(DeviceError::Unwritten(id.0))?;
        self.stats.record_read();
        self.sink.emit_with(|| Event::DeviceRead { block: id.0 });
        Ok(frame)
    }

    /// The loop over [`read`](BlockDevice::read), then one pass over the
    /// batch a cache line at a time *across* its frames. The frames are
    /// this device's own buffers and cold; whoever checksums them next
    /// would take their misses one frame, one line at a time, where this
    /// pass has one miss per frame in flight.
    fn read_many(&self, ids: &[BlockId]) -> Vec<Result<Bytes>> {
        let frames: Vec<Result<Bytes>> = ids.iter().map(|&id| self.read(id)).collect();
        let mut seen = 0;
        for line in (0..self.block_size).step_by(64) {
            for frame in frames.iter().flatten() {
                seen |= frame[line];
            }
        }
        std::hint::black_box(seen);
        frames
    }

    /// The copy is made in a recycled frame when the thread has one
    /// ([`bytes::pool`]), as the frame it overwrites becomes one.
    fn write(&self, id: BlockId, frame: &[u8]) -> Result<()> {
        self.program(id, frame.len(), || bytes::pool::copy(frame))
    }

    /// Keeps each `Bytes` it is handed instead of copying it: the buffer a
    /// frame was encoded into serves as device image, and later as the
    /// buffer every reader of that block shares. (A frame that is a view
    /// into a larger buffer keeps that buffer alive; the store hands over
    /// exact `block_size` buffers.)
    fn write_many(&self, batch: &[(BlockId, Bytes)]) -> Vec<Result<()>> {
        batch.iter().map(|(id, frame)| self.program(*id, frame.len(), || frame.clone())).collect()
    }

    fn trim(&self, id: BlockId) -> Result<()> {
        let idx = self.check_range(id)?;
        self.frames.write()[idx] = None;
        self.stats.record_trim();
        self.sink.emit_with(|| Event::DeviceTrim { block: id.0 });
        Ok(())
    }

    fn sync(&self) -> Result<()> {
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

    fn frame(dev: &MemDevice, fill: u8) -> Vec<u8> {
        vec![fill; dev.block_size()]
    }

    #[test]
    fn write_then_read_round_trips() {
        let dev = MemDevice::with_block_size(8, 64);
        let f = frame(&dev, 0xAB);
        dev.write(BlockId(3), &f).unwrap();
        let got = dev.read(BlockId(3)).unwrap();
        assert_eq!(&got[..], &f[..]);
    }

    #[test]
    fn read_unwritten_fails() {
        let dev = MemDevice::with_block_size(4, 64);
        assert!(matches!(dev.read(BlockId(0)), Err(DeviceError::Unwritten(0))));
    }

    #[test]
    fn read_many_is_the_loop_over_read() {
        // Holes, an id out of range and a frame shorter than a cache line
        // in the batch: per-block results and counters as from `read`.
        for block_size in [16, 64, 200] {
            let dev = MemDevice::with_block_size(4, block_size);
            dev.write(BlockId(1), &frame(&dev, 1)).unwrap();
            dev.write(BlockId(2), &frame(&dev, 2)).unwrap();
            let reads = dev.io_snapshot().reads;
            let got = dev.read_many(&[BlockId(0), BlockId(1), BlockId(2), BlockId(9)]);
            assert!(matches!(got[0], Err(DeviceError::Unwritten(0))));
            assert_eq!(&got[1].as_ref().unwrap()[..], &frame(&dev, 1)[..]);
            assert_eq!(&got[2].as_ref().unwrap()[..], &frame(&dev, 2)[..]);
            assert!(matches!(got[3], Err(DeviceError::OutOfRange { block: 9, .. })));
            assert_eq!(dev.io_snapshot().reads, reads + 2);
            assert!(dev.read_many(&[]).is_empty());
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let dev = MemDevice::with_block_size(4, 64);
        let f = vec![0; 64];
        assert!(matches!(
            dev.write(BlockId(4), &f),
            Err(DeviceError::OutOfRange { block: 4, capacity: 4 })
        ));
        assert!(matches!(dev.read(BlockId(9)), Err(DeviceError::OutOfRange { .. })));
    }

    #[test]
    fn wrong_frame_size_rejected() {
        let dev = MemDevice::with_block_size(4, 64);
        assert!(matches!(
            dev.write(BlockId(0), &[1, 2, 3]),
            Err(DeviceError::BadFrameSize { got: 3, expected: 64 })
        ));
    }

    #[test]
    fn trim_forgets_content() {
        let dev = MemDevice::with_block_size(4, 64);
        dev.write(BlockId(1), &frame(&dev, 1)).unwrap();
        dev.trim(BlockId(1)).unwrap();
        assert!(matches!(dev.read(BlockId(1)), Err(DeviceError::Unwritten(1))));
    }

    #[test]
    fn counters_track_each_operation() {
        let dev = MemDevice::with_block_size(4, 64);
        dev.write(BlockId(0), &frame(&dev, 0)).unwrap();
        dev.write(BlockId(1), &frame(&dev, 1)).unwrap();
        dev.read(BlockId(0)).unwrap();
        dev.trim(BlockId(1)).unwrap();
        dev.sync().unwrap();
        let s = dev.io_snapshot();
        assert_eq!((s.writes, s.reads, s.trims, s.syncs), (2, 1, 1, 1));
    }

    #[test]
    fn failed_operations_do_not_count() {
        let dev = MemDevice::with_block_size(4, 64);
        let _ = dev.write(BlockId(9), &frame(&dev, 0)); // out of range
        let _ = dev.read(BlockId(0)); // unwritten
        let s = dev.io_snapshot();
        assert_eq!((s.writes, s.reads), (0, 0));
    }

    #[test]
    fn image_digest_reflects_contents_not_history() {
        let a = MemDevice::with_block_size(4, 64);
        let b = MemDevice::with_block_size(4, 64);
        assert_eq!(a.image_digest(), b.image_digest(), "empty devices agree");
        a.write(BlockId(0), &frame(&a, 1)).unwrap();
        a.write(BlockId(2), &frame(&a, 2)).unwrap();
        // Same image via a different history (extra rewrites and trims).
        b.write(BlockId(2), &frame(&b, 9)).unwrap();
        b.write(BlockId(2), &frame(&b, 2)).unwrap();
        b.write(BlockId(1), &frame(&b, 5)).unwrap();
        b.trim(BlockId(1)).unwrap();
        b.write(BlockId(0), &frame(&b, 1)).unwrap();
        assert_eq!(a.image_digest(), b.image_digest());
        // Any divergence shows.
        b.write(BlockId(3), &frame(&b, 3)).unwrap();
        assert_ne!(a.image_digest(), b.image_digest());
        // Same bytes at a different index is a different image.
        let c = MemDevice::with_block_size(4, 64);
        c.write(BlockId(1), &frame(&c, 1)).unwrap();
        let d = MemDevice::with_block_size(4, 64);
        d.write(BlockId(2), &frame(&d, 1)).unwrap();
        assert_ne!(c.image_digest(), d.image_digest());
    }

    #[test]
    fn wear_snapshot_histogram_and_heatmap() {
        let dev = MemDevice::with_block_size(10, 64);
        for _ in 0..4 {
            dev.write(BlockId(0), &frame(&dev, 1)).unwrap();
        }
        dev.write(BlockId(7), &frame(&dev, 2)).unwrap();
        let snap = dev.wear_snapshot();
        assert_eq!(snap.blocks(), 10);
        assert_eq!(snap.wear_of(0), 4);
        assert_eq!(snap.wear_of(7), 1);
        assert_eq!(snap.wear_of(99), 0, "out-of-range reads as untouched");

        let h = snap.histogram();
        assert_eq!(h.count(), 10, "every block contributes a sample");
        assert_eq!(h.max(), 4);
        assert_eq!(h.p50(), 0, "mostly-untouched device has a zero median");

        let cells = snap.heatmap(2);
        assert_eq!(cells.len(), 2);
        assert_eq!((cells[0].start, cells[0].blocks, cells[0].max), (0, 5, 4));
        assert_eq!((cells[1].start, cells[1].blocks, cells[1].max), (5, 5, 1));
        assert!((cells[1].mean - 0.2).abs() < 1e-9);

        // Asking for more cells than blocks degrades to one block per cell;
        // the JSON rendering parses back.
        assert_eq!(snap.heatmap(1000).len(), 10);
        let doc = snap.to_json(4).render();
        observe::Json::parse(&doc).expect("wear snapshot JSON parses");
    }

    #[test]
    fn wear_counts_programs_not_trims() {
        let dev = MemDevice::with_block_size(4, 64);
        for _ in 0..3 {
            dev.write(BlockId(2), &frame(&dev, 7)).unwrap();
        }
        dev.trim(BlockId(2)).unwrap();
        assert_eq!(dev.wear_of(BlockId(2)), 3);
        let w = dev.wear_summary();
        assert_eq!(w.max_wear, 3);
        assert_eq!(w.total_programs, 3);
        assert_eq!(w.blocks_touched, 1);
    }
}
