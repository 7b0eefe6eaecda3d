//! File-backed block device.
//!
//! [`FileDevice`] maps block ids to fixed offsets inside one backing file,
//! so the whole LSM index can be run against a real filesystem (the paper
//! used ext4 on local SSDs with direct I/O). Counting is identical to
//! [`crate::MemDevice`]; only the medium differs.

use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bytes::Bytes;
use observe::{Event, SinkCell, SinkHandle};
use parking_lot::Mutex;

use crate::device::{BlockDevice, BlockId, DEFAULT_BLOCK_SIZE};
use crate::error::{DeviceError, Result};
use crate::stats::{IoSnapshot, IoStats};

#[cfg(unix)]
use std::os::unix::fs::FileExt;

/// Process-wide count of directory fsyncs issued via [`fsync_parent_dir`].
///
/// Durability of a `create` or `rename` is invisible to ordinary tests (the
/// page cache hides it), so regression tests assert against this counter
/// instead: any code path that commits a directory entry must bump it.
static DIR_SYNCS: AtomicU64 = AtomicU64::new(0);

/// Number of directory fsyncs issued process-wide so far.
pub fn dir_syncs() -> u64 {
    DIR_SYNCS.load(Ordering::SeqCst)
}

/// Fsync the directory containing `path`.
///
/// Creating or renaming a file makes the new directory entry visible, but
/// not durable: a crash can roll the directory back even though the file's
/// own data was fsynced. Any protocol that treats "the file exists under
/// this name" as a commit point (manifest rename, WAL creation, device
/// creation) must fsync the parent directory too. No-op on non-unix hosts.
pub fn fsync_parent_dir(path: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
        DIR_SYNCS.fetch_add(1, Ordering::SeqCst);
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// `O_DIRECT` from the Linux kernel ABI. The asm-generic value covers
/// x86, x86-64, aarch64 and riscv; 32-bit arm overrides it.
#[cfg(all(target_os = "linux", not(target_arch = "arm")))]
const O_DIRECT: i32 = 0o40000;
#[cfg(all(target_os = "linux", target_arch = "arm"))]
const O_DIRECT: i32 = 0o200000;

/// Memory alignment used for O_DIRECT buffers (one page covers every
/// logical-block-size requirement Linux enforces).
const DIRECT_ALIGN: usize = 4096;

/// Longest run of adjacent blocks moved by a single coalesced syscall:
/// 16 × 4 KiB = 64 KiB. That already divides the per-syscall cost by 16,
/// and it keeps every transfer buffer under the allocator's 128 KiB
/// mmap/trim thresholds. Measured in a live heap, 128 KiB and larger
/// extents cost 1.3–1.5 µs per block read against 0.8–0.9 µs at 64 KiB
/// (a single-block read: 0.9 µs) — the "fewer syscalls, slower wall-clock"
/// of the first batched-I/O baseline.
const MAX_EXTENT_BLOCKS: usize = 16;

/// Options for creating or opening a [`FileDevice`].
#[derive(Debug, Clone, Copy)]
pub struct FileDeviceOptions {
    /// Fixed frame size in bytes.
    pub block_size: usize,
    /// Open with `O_DIRECT`, bypassing the page cache (the paper's
    /// experimental setting). Requires a 512-aligned block size and
    /// filesystem support; creation fails with a typed error otherwise so
    /// callers can fall back to buffered mode. Use [`probe_direct`] to
    /// test support cheaply.
    pub direct: bool,
}

impl Default for FileDeviceOptions {
    fn default() -> Self {
        FileDeviceOptions { block_size: DEFAULT_BLOCK_SIZE, direct: false }
    }
}

/// Syscall-level counters for a [`FileDevice`]: each unit is one pread or
/// pwrite handed to the kernel, regardless of how many blocks it moved.
/// `IoSnapshot` counts *blocks*; the ratio of the two is the batching win.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileSyscalls {
    /// pread calls issued.
    pub preads: u64,
    /// pwrite calls issued.
    pub pwrites: u64,
}

/// Best-effort probe: can `dir` host an O_DIRECT [`FileDevice`]? Creates
/// and removes a tiny probe file. Benches and tests use this to fall back
/// to buffered mode on filesystems (tmpfs, overlayfs) without O_DIRECT.
pub fn probe_direct(dir: &Path) -> bool {
    let path = dir.join(format!("sim-ssd-o-direct-probe-{}", std::process::id()));
    let ok = (|| -> Result<()> {
        let opts = FileDeviceOptions { block_size: DIRECT_ALIGN, direct: true };
        let dev = FileDevice::create_with(&path, 2, opts)?;
        dev.write(BlockId(0), &[0u8; DIRECT_ALIGN])?;
        dev.read(BlockId(0))?;
        Ok(())
    })()
    .is_ok();
    std::fs::remove_file(&path).ok();
    ok
}

/// A buffer sized `len` whose returned offset is `align`-aligned, without
/// any unsafe allocation tricks: over-allocate and slice at the first
/// aligned address. The `Vec` never grows, so the address is stable.
fn aligned_vec(len: usize, align: usize) -> (Vec<u8>, usize) {
    let v = vec![0u8; len + align];
    let off = (align - (v.as_ptr() as usize % align)) % align;
    (v, off)
}

/// A block device stored in a single file.
///
/// Blocks that were trimmed (or never written) are tracked in an in-memory
/// validity bitmap; reading one returns [`DeviceError::Unwritten`] just like
/// the simulated device. The bitmap is volatile — reopening a file device
/// treats every block as valid, which is the right semantics for the LSM
/// layer because it re-adopts only the blocks its manifest references.
///
/// If `sync_data` ever fails, the error is surfaced **once** and the device
/// is *poisoned*: further writes, trims, and syncs return
/// [`DeviceError::Poisoned`] until the file is re-opened. Retrying a failed
/// fsync is unsound — the kernel may have already dropped the dirty pages,
/// so a later "successful" sync would silently ack lost data.
pub struct FileDevice {
    file: File,
    path: PathBuf,
    block_size: usize,
    capacity: u64,
    direct: bool,
    valid: Mutex<Vec<bool>>,
    /// Reusable transfer buffer, see [`FileDevice::with_scratch`].
    scratch: Mutex<Vec<u8>>,
    poisoned: AtomicBool,
    #[cfg(test)]
    fail_next_sync: AtomicBool,
    stats: IoStats,
    preads: AtomicU64,
    pwrites: AtomicU64,
    sink: SinkCell,
}

impl FileDevice {
    /// Create (truncate) a device file with default 4 KiB blocks.
    pub fn create<P: AsRef<Path>>(path: P, capacity: u64) -> Result<Self> {
        Self::create_with_block_size(path, capacity, DEFAULT_BLOCK_SIZE)
    }

    /// Create (truncate) a device file with a custom block size.
    pub fn create_with_block_size<P: AsRef<Path>>(
        path: P,
        capacity: u64,
        block_size: usize,
    ) -> Result<Self> {
        Self::create_with(path, capacity, FileDeviceOptions { block_size, direct: false })
    }

    /// Create (truncate) a device file with explicit [`FileDeviceOptions`].
    pub fn create_with<P: AsRef<Path>>(
        path: P,
        capacity: u64,
        opts: FileDeviceOptions,
    ) -> Result<Self> {
        assert!(opts.block_size > 0);
        Self::check_direct_geometry(&opts)?;
        let file = Self::open_options(&opts).create(true).truncate(true).open(path.as_ref())?;
        file.set_len(capacity * opts.block_size as u64)?;
        // The file's *name* is part of the device's identity: make the
        // directory entry durable, not just the inode.
        fsync_parent_dir(path.as_ref())?;
        Ok(FileDevice {
            file,
            path: path.as_ref().to_path_buf(),
            block_size: opts.block_size,
            capacity,
            direct: opts.direct,
            valid: Mutex::new(vec![false; capacity as usize]),
            scratch: Mutex::new(Vec::new()),
            poisoned: AtomicBool::new(false),
            #[cfg(test)]
            fail_next_sync: AtomicBool::new(false),
            stats: IoStats::new(),
            preads: AtomicU64::new(0),
            pwrites: AtomicU64::new(0),
            sink: SinkCell::new(),
        })
    }

    /// Reopen an existing device file. All blocks are considered valid.
    ///
    /// Fails with [`DeviceError::Geometry`] when the file length is not a
    /// whole number of blocks — a torn resize or a `block_size` that does
    /// not match the one the device was created with would otherwise
    /// silently reopen with the wrong geometry.
    pub fn open<P: AsRef<Path>>(path: P, block_size: usize) -> Result<Self> {
        Self::open_with(path, FileDeviceOptions { block_size, direct: false })
    }

    /// Reopen an existing device file with explicit [`FileDeviceOptions`].
    pub fn open_with<P: AsRef<Path>>(path: P, opts: FileDeviceOptions) -> Result<Self> {
        assert!(opts.block_size > 0);
        Self::check_direct_geometry(&opts)?;
        let file = Self::open_options(&opts).open(path.as_ref())?;
        let len = file.metadata()?.len();
        if !len.is_multiple_of(opts.block_size as u64) {
            return Err(DeviceError::Geometry { file_len: len, block_size: opts.block_size });
        }
        let capacity = len / opts.block_size as u64;
        Ok(FileDevice {
            file,
            path: path.as_ref().to_path_buf(),
            block_size: opts.block_size,
            capacity,
            direct: opts.direct,
            valid: Mutex::new(vec![true; capacity as usize]),
            scratch: Mutex::new(Vec::new()),
            poisoned: AtomicBool::new(false),
            #[cfg(test)]
            fail_next_sync: AtomicBool::new(false),
            stats: IoStats::new(),
            preads: AtomicU64::new(0),
            pwrites: AtomicU64::new(0),
            sink: SinkCell::new(),
        })
    }

    fn open_options(opts: &FileDeviceOptions) -> OpenOptions {
        let mut oo = OpenOptions::new();
        oo.read(true).write(true);
        #[cfg(target_os = "linux")]
        if opts.direct {
            use std::os::unix::fs::OpenOptionsExt;
            oo.custom_flags(O_DIRECT);
        }
        oo
    }

    fn check_direct_geometry(opts: &FileDeviceOptions) -> Result<()> {
        if !opts.direct {
            return Ok(());
        }
        if cfg!(not(target_os = "linux")) {
            return Err(DeviceError::Io(std::io::Error::other(
                "O_DIRECT mode is only supported on Linux",
            )));
        }
        if !opts.block_size.is_multiple_of(512) {
            // O_DIRECT transfers must be logical-sector aligned; a block
            // size that is not a multiple of 512 can never satisfy that.
            return Err(DeviceError::Geometry { file_len: 0, block_size: opts.block_size });
        }
        Ok(())
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether the device was opened in O_DIRECT mode.
    pub fn is_direct(&self) -> bool {
        self.direct
    }

    /// Syscall-level counters: preads/pwrites actually issued. Compare
    /// against [`BlockDevice::io_snapshot`] (which counts blocks) to see
    /// how much batching coalesced.
    pub fn syscalls(&self) -> FileSyscalls {
        FileSyscalls {
            preads: self.preads.load(Ordering::SeqCst),
            pwrites: self.pwrites.load(Ordering::SeqCst),
        }
    }

    /// One pread filling `buf` (any whole number of frames) from `first`.
    fn pread_at(&self, first: BlockId, buf: &mut [u8]) -> std::io::Result<()> {
        #[cfg(unix)]
        self.file.read_exact_at(buf, self.offset(first))?;
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut f = &self.file;
            f.seek(SeekFrom::Start(self.offset(first)))?;
            f.read_exact(buf)?;
        }
        self.preads.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Run `f` over a `len`-byte window (aligned in O_DIRECT mode) of the
    /// device's reusable transfer buffer. A buffer per call would cost an
    /// allocation and a zero-fill of the whole extent every time; this one
    /// grows to the largest extent seen and stays.
    fn with_scratch<T>(&self, len: usize, f: impl FnOnce(&mut [u8]) -> T) -> T {
        let align = if self.direct { DIRECT_ALIGN.max(self.block_size) } else { 1 };
        let mut buf = self.scratch.lock();
        if buf.len() < len + align {
            buf.resize(len + align, 0);
        }
        let off = (align - buf.as_ptr() as usize % align) % align;
        f(&mut buf[off..off + len])
    }

    /// Read one (already validated) block into a buffer of its own, which
    /// becomes the returned `Bytes` without a copy. The buffer is a
    /// recycled frame when the thread has one ([`bytes::pool`]), stale
    /// bytes and all: the pread fills every byte of it or fails, and a
    /// failed read's buffer goes nowhere. O_DIRECT needs an aligned
    /// transfer buffer, so there the frame is copied out of the scratch
    /// window instead.
    fn read_frame(&self, id: BlockId) -> std::io::Result<Bytes> {
        if self.direct {
            return self.with_scratch(self.block_size, |window| {
                self.pread_at(id, window)?;
                Ok(bytes::pool::copy(window))
            });
        }
        let mut frame = bytes::pool::take(self.block_size);
        frame.resize(self.block_size, 0);
        self.pread_at(id, &mut frame)?;
        Ok(Bytes::from(frame))
    }

    /// One pread for the adjacent, already validated `ids`, one result per
    /// id into `out`. Each block is copied *out* of the extent into a buffer
    /// of its own: a cached block must never keep a whole extent alive.
    fn read_extent(
        &self,
        ids: &[BlockId],
        out: &mut [Option<Result<Bytes>>],
    ) -> std::io::Result<()> {
        self.with_scratch(ids.len() * self.block_size, |window| {
            self.pread_at(ids[0], window)?;
            for ((slot, id), frame) in
                out.iter_mut().zip(ids).zip(window.chunks_exact(self.block_size))
            {
                self.stats.record_read();
                self.sink.emit_with(|| Event::DeviceRead { block: id.0 });
                *slot = Some(Ok(bytes::pool::copy(frame)));
            }
            Ok(())
        })
    }

    /// One pwrite of `data` (any whole number of frames) starting at
    /// `first`, copying through an aligned buffer in O_DIRECT mode.
    fn pwrite_extent(&self, first: BlockId, data: &[u8]) -> std::io::Result<()> {
        if self.direct {
            let (mut buf, off) = aligned_vec(data.len(), DIRECT_ALIGN.max(self.block_size));
            buf[off..off + data.len()].copy_from_slice(data);
            self.pwrite_raw(&buf[off..off + data.len()], self.offset(first))?;
        } else {
            self.pwrite_raw(data, self.offset(first))?;
        }
        self.pwrites.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    fn pwrite_raw(&self, data: &[u8], offset: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        return self.file.write_all_at(data, offset);
        #[cfg(not(unix))]
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = &self.file;
            f.seek(SeekFrom::Start(offset))?;
            f.write_all(data)
        }
    }

    /// Whether a failed sync has poisoned the device (re-open to clear).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    fn check_poisoned(&self) -> Result<()> {
        if self.is_poisoned() {
            return Err(DeviceError::Poisoned);
        }
        Ok(())
    }

    fn check_range(&self, id: BlockId) -> Result<usize> {
        if id.0 >= self.capacity {
            return Err(DeviceError::OutOfRange { block: id.0, capacity: self.capacity });
        }
        Ok(id.0 as usize)
    }

    fn offset(&self, id: BlockId) -> u64 {
        id.0 * self.block_size as u64
    }
}

impl BlockDevice for FileDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn read(&self, id: BlockId) -> Result<Bytes> {
        let idx = self.check_range(id)?;
        if !self.valid.lock()[idx] {
            return Err(DeviceError::Unwritten(id.0));
        }
        let frame = self.read_frame(id)?;
        self.stats.record_read();
        self.sink.emit_with(|| Event::DeviceRead { block: id.0 });
        Ok(frame)
    }

    fn write(&self, id: BlockId, frame: &[u8]) -> Result<()> {
        self.check_poisoned()?;
        let idx = self.check_range(id)?;
        if frame.len() != self.block_size {
            return Err(DeviceError::BadFrameSize { got: frame.len(), expected: self.block_size });
        }
        self.pwrite_extent(id, frame)?;
        self.valid.lock()[idx] = true;
        self.stats.record_write();
        self.sink.emit_with(|| Event::DeviceWrite { block: id.0 });
        Ok(())
    }

    fn read_many(&self, ids: &[BlockId]) -> Vec<Result<Bytes>> {
        // Pre-validate each id exactly like `read` so per-block results
        // match the single-op loop; only ids that reach the medium are
        // candidates for coalescing.
        let mut out: Vec<Option<Result<Bytes>>> = Vec::with_capacity(ids.len());
        {
            let valid = self.valid.lock();
            for &id in ids {
                out.push(match self.check_range(id) {
                    Err(e) => Some(Err(e)),
                    Ok(idx) if !valid[idx] => Some(Err(DeviceError::Unwritten(id.0))),
                    Ok(_) => None,
                });
            }
        }
        let mut i = 0;
        while i < ids.len() {
            if out[i].is_some() {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < ids.len()
                && out[j].is_none()
                && ids[j].0 == ids[j - 1].0 + 1
                && j - i < MAX_EXTENT_BLOCKS
            {
                j += 1;
            }
            let coalesced = j - i > 1 && self.read_extent(&ids[i..j], &mut out[i..j]).is_ok();
            if !coalesced {
                // A run of one, or a torn extent read (EINTR and friends):
                // block-at-a-time, so each block gets the outcome the
                // single-op loop would have produced.
                for k in i..j {
                    out[k] = Some(self.read(ids[k]));
                }
            }
            i = j;
        }
        out.into_iter().map(|r| r.expect("every slot filled")).collect()
    }

    fn write_many(&self, batch: &[(BlockId, Bytes)]) -> Vec<Result<()>> {
        let mut out: Vec<Option<Result<()>>> = Vec::with_capacity(batch.len());
        for (id, frame) in batch {
            out.push(if self.is_poisoned() {
                Some(Err(DeviceError::Poisoned))
            } else {
                match self.check_range(*id) {
                    Err(e) => Some(Err(e)),
                    Ok(_) if frame.len() != self.block_size => {
                        Some(Err(DeviceError::BadFrameSize {
                            got: frame.len(),
                            expected: self.block_size,
                        }))
                    }
                    Ok(_) => None,
                }
            });
        }
        let mut i = 0;
        while i < batch.len() {
            if out[i].is_some() {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < batch.len()
                && out[j].is_none()
                && batch[j].0 .0 == batch[j - 1].0 .0 + 1
                && j - i < MAX_EXTENT_BLOCKS
            {
                j += 1;
            }
            if j - i == 1 {
                out[i] = Some(self.write(batch[i].0, &batch[i].1));
                i = j;
                continue;
            }
            let mut data = Vec::with_capacity((j - i) * self.block_size);
            for (_, frame) in &batch[i..j] {
                data.extend_from_slice(frame);
            }
            match self.pwrite_extent(batch[i].0, &data) {
                Ok(()) => {
                    let mut valid = self.valid.lock();
                    for (k, slot) in out[i..j].iter_mut().enumerate() {
                        let id = batch[i + k].0;
                        valid[id.0 as usize] = true;
                        self.stats.record_write();
                        self.sink.emit_with(|| Event::DeviceWrite { block: id.0 });
                        *slot = Some(Ok(()));
                    }
                }
                Err(_) => {
                    for k in i..j {
                        out[k] = Some(self.write(batch[k].0, &batch[k].1));
                    }
                }
            }
            i = j;
        }
        out.into_iter().map(|r| r.expect("every slot filled")).collect()
    }

    fn trim(&self, id: BlockId) -> Result<()> {
        self.check_poisoned()?;
        let idx = self.check_range(id)?;
        self.valid.lock()[idx] = false;
        self.stats.record_trim();
        self.sink.emit_with(|| Event::DeviceTrim { block: id.0 });
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.check_poisoned()?;
        #[cfg(test)]
        let sync_result = if self.fail_next_sync.swap(false, Ordering::SeqCst) {
            Err(std::io::Error::other("injected sync_data failure"))
        } else {
            self.file.sync_data()
        };
        #[cfg(not(test))]
        let sync_result = self.file.sync_data();
        if let Err(e) = sync_result {
            // A failed fsync may have dropped dirty pages; surface the error
            // once and refuse all further mutation until re-open.
            self.poisoned.store(true, Ordering::SeqCst);
            return Err(DeviceError::Io(e));
        }
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

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sim-ssd-test-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn create_write_read_roundtrip() {
        let path = temp_path("roundtrip");
        {
            let dev = FileDevice::create_with_block_size(&path, 8, 128).unwrap();
            let frame = vec![0x5A; 128];
            dev.write(BlockId(5), &frame).unwrap();
            assert_eq!(&dev.read(BlockId(5)).unwrap()[..], &frame[..]);
            let s = dev.io_snapshot();
            assert_eq!((s.writes, s.reads), (1, 1));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_preserves_content() {
        let path = temp_path("reopen");
        {
            let dev = FileDevice::create_with_block_size(&path, 4, 128).unwrap();
            dev.write(BlockId(2), &[7u8; 128]).unwrap();
            dev.sync().unwrap();
        }
        {
            let dev = FileDevice::open(&path, 128).unwrap();
            assert_eq!(dev.capacity(), 4);
            assert_eq!(&dev.read(BlockId(2)).unwrap()[..], &[7u8; 128][..]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trim_and_unwritten_semantics() {
        let path = temp_path("trim");
        {
            let dev = FileDevice::create_with_block_size(&path, 4, 128).unwrap();
            assert!(matches!(dev.read(BlockId(0)), Err(DeviceError::Unwritten(0))));
            dev.write(BlockId(0), &[1u8; 128]).unwrap();
            dev.trim(BlockId(0)).unwrap();
            assert!(matches!(dev.read(BlockId(0)), Err(DeviceError::Unwritten(0))));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_sync_poisons_until_reopen() {
        let path = temp_path("poison");
        {
            let dev = FileDevice::create_with_block_size(&path, 4, 128).unwrap();
            dev.write(BlockId(0), &[1u8; 128]).unwrap();
            dev.fail_next_sync.store(true, Ordering::SeqCst);
            // The io::Error surfaces exactly once...
            assert!(matches!(dev.sync(), Err(DeviceError::Io(_))));
            assert!(dev.is_poisoned());
            // ...then every mutation refuses with Poisoned (permanent).
            let err = dev.sync().unwrap_err();
            assert!(matches!(err, DeviceError::Poisoned));
            assert!(!err.is_transient());
            assert!(matches!(dev.write(BlockId(1), &[2u8; 128]), Err(DeviceError::Poisoned)));
            assert!(matches!(dev.trim(BlockId(0)), Err(DeviceError::Poisoned)));
            // Reads are still allowed.
            assert_eq!(&dev.read(BlockId(0)).unwrap()[..], &[1u8; 128][..]);
        }
        {
            let dev = FileDevice::open(&path, 128).unwrap();
            assert!(!dev.is_poisoned());
            dev.write(BlockId(1), &[2u8; 128]).unwrap();
            dev.sync().unwrap();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_partial_trailing_block() {
        let path = temp_path("geometry-partial");
        {
            let dev = FileDevice::create_with_block_size(&path, 4, 128).unwrap();
            dev.write(BlockId(0), &[9u8; 128]).unwrap();
            dev.sync().unwrap();
        }
        // A torn resize leaves a trailing partial block; reopening must
        // refuse instead of silently flooring the capacity.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(4 * 128 + 17).unwrap();
        drop(f);
        let err = match FileDevice::open(&path, 128) {
            Err(e) => e,
            Ok(_) => panic!("open must fail on a partial trailing block"),
        };
        assert!(
            matches!(err, DeviceError::Geometry { file_len: 529, block_size: 128 }),
            "expected Geometry error, got {err:?}"
        );
        assert!(!err.is_transient());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_mismatched_block_size() {
        let path = temp_path("geometry-mismatch");
        {
            FileDevice::create_with_block_size(&path, 3, 128).unwrap();
        }
        // 3 * 128 = 384 bytes is not a whole number of 256-byte blocks, so
        // the wrong block size is caught instead of reopening with a
        // silently wrong geometry.
        assert!(matches!(
            FileDevice::open(&path, 256),
            Err(DeviceError::Geometry { file_len: 384, block_size: 256 })
        ));
        // The correct block size still works.
        assert_eq!(FileDevice::open(&path, 128).unwrap().capacity(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_fsyncs_the_parent_directory() {
        let path = temp_path("dirsync");
        let before = dir_syncs();
        {
            FileDevice::create_with_block_size(&path, 2, 128).unwrap();
        }
        assert!(
            dir_syncs() > before,
            "create must fsync the parent directory to commit the file's name"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_many_coalesces_adjacent_blocks_into_one_pread() {
        let path = temp_path("coalesce-read");
        {
            let dev = FileDevice::create_with_block_size(&path, 16, 128).unwrap();
            for i in 0..10u64 {
                dev.write(BlockId(i), &[i as u8; 128]).unwrap();
            }
            let base = dev.syscalls();
            // 0..5 adjacent, then a gap, then 8..10 adjacent: 2 extents.
            let ids: Vec<BlockId> = (0..5).chain(8..10).map(BlockId).collect();
            let frames = dev.read_many(&ids);
            for (k, f) in frames.iter().enumerate() {
                assert_eq!(&f.as_ref().unwrap()[..], &[ids[k].0 as u8; 128][..]);
            }
            let now = dev.syscalls();
            assert_eq!(now.preads - base.preads, 2, "two extents, two preads");
            // The block-level counters still count every block.
            assert_eq!(dev.io_snapshot().reads, 7);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_many_matches_single_op_loop_on_errors() {
        let path = temp_path("coalesce-errors");
        {
            let dev = FileDevice::create_with_block_size(&path, 8, 128).unwrap();
            dev.write(BlockId(1), &[1u8; 128]).unwrap();
            dev.write(BlockId(2), &[2u8; 128]).unwrap();
            // Unwritten hole at 0 and 3, out-of-range at 99: per-block
            // results must match what a loop over read() returns.
            let ids = [BlockId(0), BlockId(1), BlockId(2), BlockId(3), BlockId(99)];
            let got = dev.read_many(&ids);
            assert!(matches!(got[0], Err(DeviceError::Unwritten(0))));
            assert_eq!(&got[1].as_ref().unwrap()[..], &[1u8; 128][..]);
            assert_eq!(&got[2].as_ref().unwrap()[..], &[2u8; 128][..]);
            assert!(matches!(got[3], Err(DeviceError::Unwritten(3))));
            assert!(matches!(got[4], Err(DeviceError::OutOfRange { block: 99, .. })));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_many_coalesces_adjacent_blocks_into_one_pwrite() {
        let path = temp_path("coalesce-write");
        {
            let dev = FileDevice::create_with_block_size(&path, 16, 128).unwrap();
            let base = dev.syscalls();
            let batch: Vec<(BlockId, Bytes)> =
                (4..9u64).map(|i| (BlockId(i), Bytes::from(vec![i as u8; 128]))).collect();
            for r in dev.write_many(&batch) {
                r.unwrap();
            }
            let now = dev.syscalls();
            assert_eq!(now.pwrites - base.pwrites, 1, "one extent, one pwrite");
            assert_eq!(dev.io_snapshot().writes, 5);
            for i in 4..9u64 {
                assert_eq!(&dev.read(BlockId(i)).unwrap()[..], &[i as u8; 128][..]);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn direct_mode_roundtrip_or_unsupported() {
        let dir = std::env::temp_dir();
        if !probe_direct(&dir) {
            eprintln!("skipping O_DIRECT roundtrip: filesystem does not support it");
            return;
        }
        let path = temp_path("direct");
        {
            let opts = FileDeviceOptions { block_size: 4096, direct: true };
            let dev = FileDevice::create_with(&path, 8, opts).unwrap();
            assert!(dev.is_direct());
            dev.write(BlockId(3), &[0xAB; 4096]).unwrap();
            let batch: Vec<(BlockId, Bytes)> =
                (4..7u64).map(|i| (BlockId(i), Bytes::from(vec![i as u8; 4096]))).collect();
            for r in dev.write_many(&batch) {
                r.unwrap();
            }
            let ids: Vec<BlockId> = (3..7).map(BlockId).collect();
            let frames = dev.read_many(&ids);
            assert_eq!(&frames[0].as_ref().unwrap()[..], &[0xAB; 4096][..]);
            for (k, i) in (4..7u64).enumerate() {
                assert_eq!(&frames[k + 1].as_ref().unwrap()[..], &[i as u8; 4096][..]);
            }
            dev.sync().unwrap();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn direct_mode_rejects_unaligned_block_size() {
        let path = temp_path("direct-unaligned");
        let opts = FileDeviceOptions { block_size: 100, direct: true };
        let err = match FileDevice::create_with(&path, 4, opts) {
            Err(e) => e,
            Ok(_) => panic!("direct mode with unaligned block size must fail"),
        };
        if cfg!(target_os = "linux") {
            assert!(matches!(err, DeviceError::Geometry { block_size: 100, .. }));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_and_bad_frame() {
        let path = temp_path("range");
        {
            let dev = FileDevice::create_with_block_size(&path, 2, 128).unwrap();
            assert!(matches!(
                dev.write(BlockId(2), &[0; 128]),
                Err(DeviceError::OutOfRange { .. })
            ));
            assert!(matches!(
                dev.write(BlockId(0), &[0; 5]),
                Err(DeviceError::BadFrameSize { got: 5, expected: 128 })
            ));
        }
        std::fs::remove_file(&path).ok();
    }
}
