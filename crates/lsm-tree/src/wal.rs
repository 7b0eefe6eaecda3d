//! Write-ahead logging for L0.
//!
//! The manifest ([`crate::manifest`]) checkpoints the on-SSD state, but L0
//! lives in memory: modifications since the last checkpoint would vanish
//! in a crash. [`WriteAheadLog`] is the standard fix — an append-only,
//! checksummed record of every request, replayed on recovery and truncated
//! at each checkpoint. A shard of [`crate::ShardedLsmTree`] owns one log
//! beside its manifest:
//!
//! ```text
//! apply(req):   shard write loop: validate → WAL append → memtable insert (→ fsync under Group)
//! checkpoint(): WAL.sync → device.sync → manifest.write → WAL.truncate (under the shard lock)
//! recover():    manifest.restore → WAL.replay (tolerating a torn tail)
//! ```
//!
//! File format (little-endian): an 8-byte header, `magic u32 "LSMW" |
//! version u32`, written and fsynced when the log is created, then one
//! frame per request: `len u32 | checksum::sum64(0, payload) u64 | payload`,
//! payload = `op u8 | key u64 [| plen u32 | payload bytes]`. Replay stops
//! cleanly at the first truncated or corrupt frame, which is exactly the
//! torn-write behaviour of a crash mid-append. The header is what tells a
//! log of another format from a torn one: version 1 had no header and
//! 8-byte frame headers (a 32-bit sum), so its first frame would fail the
//! 64-bit check and read as "torn at byte 0" — every request in it silently
//! dropped. A file that does not start with this header is refused with a
//! typed error instead; one cut short inside the header holds no frame and
//! is a fresh log.
//!
//! A sync comes in two halves so that a concurrent front-end never fsyncs
//! under the lock that guards the log: `WriteAheadLog::begin_sync`
//! flushes the userspace buffer and *notes* the length (`&mut self`, so
//! under that lock), `PendingSync::finish` fsyncs on a handle of its own
//! — appends go on meanwhile — and publishes the noted length, never the
//! length at completion. [`WriteAheadLog::sync`] is the two back to back.
//!
//! A *position* in the log only grows: it is a file offset plus the log's
//! `base`, and a truncation moves the base so that the cut sits where the
//! log ended. A position from before the cut is therefore at most the cut,
//! and every one after it is beyond: a sync begun before a cut and
//! finished after it publishes nothing new, and a writer holding a
//! position from before the cut is covered by the checkpoint that made it.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use sim_ssd::{DeviceError, FaultKind, SplitMix64};

use crate::checksum;
use crate::error::{LsmError, Result};
use crate::record::{Key, Request};

/// Seeded fault injection for [`WriteAheadLog::sync`], mirroring
/// [`sim_ssd::FaultPlan`] for the one durability primitive the WAL owns:
/// the fsync. An injected failure fires *before* the real `sync_data`, so
/// the appended bytes stay in an unknown durable state — exactly the
/// situation that makes retrying an fsync unsound — and the log is
/// poisoned until re-opened, like [`sim_ssd::FileDevice`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WalFaultPlan {
    /// Per-sync failure probability.
    pub sync_error_rate: f64,
    /// Deterministically fail the nth sync attempt (0-based, counted over
    /// attempts that actually reach the fsync, not no-ops).
    pub fail_sync_at: Option<u64>,
}

impl WalFaultPlan {
    /// No injected faults.
    pub fn none() -> Self {
        WalFaultPlan::default()
    }

    /// Fail each sync attempt with probability `p`.
    pub fn sync_error_rate(mut self, p: f64) -> Self {
        self.sync_error_rate = p;
        self
    }

    /// Fail exactly the `nth` sync attempt (0-based).
    pub fn fail_sync_at(mut self, nth: u64) -> Self {
        self.fail_sync_at = Some(nth);
        self
    }
}

/// What a sync in flight shares with the log it syncs: the fsync handle
/// and everything the fsync's outcome decides. Atomics, because the second
/// half of a sync runs without the lock that guards the log.
struct Durable {
    /// A second handle on the log file (same open file description as the
    /// writer's), so an fsync needs no access to the writer.
    file: File,
    /// The position known crash-durable (flushed *and* fsynced). Crash
    /// simulators truncate the file anywhere in `[synced_len, len]` to
    /// model what a host power cut can leave behind.
    synced: AtomicU64,
    /// Fsyncs issued over the log's lifetime (not reset by truncation) —
    /// the denominator of the group-commit economy: N writers sharing one
    /// fsync show up here as 1, not N.
    syncs: AtomicU64,
    /// A sync failed; every later append/sync fails until re-open. Retrying
    /// a failed fsync is unsound (the kernel may have dropped the dirty
    /// pages), so the log refuses to pretend otherwise.
    poisoned: AtomicBool,
}

const WAL_MAGIC: u32 = 0x4C_53_4D_57; // "LSMW"
const WAL_VERSION: u32 = 2;

/// Bytes of file header; every length and offset the log reports is a file
/// offset, so an empty log is this long.
pub(crate) const WAL_HEADER_LEN: u64 = 8;

/// Bytes of frame header: payload length (4) + checksum (8).
const FRAME_HEADER_LEN: usize = 12;

fn file_header() -> [u8; WAL_HEADER_LEN as usize] {
    let mut header = [0; WAL_HEADER_LEN as usize];
    header[..4].copy_from_slice(&WAL_MAGIC.to_le_bytes());
    header[4..].copy_from_slice(&WAL_VERSION.to_le_bytes());
    header
}

/// An append-only request log.
pub struct WriteAheadLog {
    writer: BufWriter<File>,
    durable: Arc<Durable>,
    path: PathBuf,
    appended: u64,
    /// The position of file offset 0 (module docs): 0 until a truncation.
    base: u64,
    /// Where the log ends, as a file offset — the header, then every
    /// frame appended since creation/truncation (some may still sit in
    /// the userspace buffer or the page cache).
    len: u64,
    /// Sync attempts that reached the fsync path (successful or injected),
    /// the ordinal [`WalFaultPlan::fail_sync_at`] counts against.
    sync_attempts: u64,
    /// Injected-fault plan plus its seeded RNG, when installed.
    fault: Option<(WalFaultPlan, SplitMix64)>,
    /// Reused by [`WriteAheadLog::append`] to encode its frame.
    frame: Vec<u8>,
}

/// A sync between its halves (module docs): the buffer is flushed, the
/// length noted and the fault-injection decision taken, in attempt order,
/// by [`WriteAheadLog::begin_sync`]; [`PendingSync::finish`] does the rest
/// with no access to the log.
#[must_use = "a begun sync makes nothing durable until it is finished"]
pub(crate) struct PendingSync {
    durable: Arc<Durable>,
    /// Where the log ended when the sync began: what `finish` publishes.
    at: u64,
    fsync: Fsync,
}

/// What the second half of a sync has to do.
enum Fsync {
    /// Nothing: everything appended was durable already.
    NotNeeded,
    Real,
    /// The fault plan fails this attempt (its ordinal inside): the failure
    /// fires *instead of* the real `sync_data`.
    Injected(u64),
}

impl PendingSync {
    /// Fsync and publish the noted position as durable, or poison the log.
    /// Returns the position now known durable. Never under a tree lock but
    /// a checkpoint's.
    pub(crate) fn finish(self) -> Result<u64> {
        let d = &self.durable;
        crate::lockorder::assert_fsync_allowed("WAL fsync");
        let res = match self.fsync {
            Fsync::NotNeeded => return Ok(d.synced.load(Ordering::SeqCst)),
            Fsync::Injected(op) => Err(DeviceError::Injected { kind: FaultKind::Sync, op }),
            Fsync::Real => d.file.sync_data().map_err(DeviceError::Io),
        };
        match res {
            Ok(()) => {
                d.syncs.fetch_add(1, Ordering::SeqCst);
                // Syncs that overlap may finish in either order, and one
                // begun before a truncation publishes nothing after it.
                Ok(d.synced.fetch_max(self.at, Ordering::SeqCst).max(self.at))
            }
            Err(e) => {
                d.poisoned.store(true, Ordering::SeqCst);
                Err(e.into())
            }
        }
    }
}

impl WriteAheadLog {
    /// Create (truncate) a log at `path`: the file header, fsynced, so
    /// that whatever a crash leaves of the file later starts with it.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path.as_ref())
            .map_err(DeviceError::Io)?;
        file.write_all(&file_header()).map_err(DeviceError::Io)?;
        file.sync_data().map_err(DeviceError::Io)?;
        // Make the directory entry durable too: a crash right after
        // creation must not leave a WAL whose file vanishes with the
        // unsynced directory, or recovery would silently skip replay.
        sim_ssd::fsync_parent_dir(path.as_ref()).map_err(DeviceError::Io)?;
        Self::over(file, path.as_ref(), 0, WAL_HEADER_LEN, WAL_HEADER_LEN)
    }

    /// A log over `file`, positioned at its end: `appended` requests in
    /// `len` bytes, the first `synced_len` of them known durable.
    fn over(file: File, path: &Path, appended: u64, len: u64, synced_len: u64) -> Result<Self> {
        let durable = Durable {
            file: file.try_clone().map_err(DeviceError::Io)?,
            synced: AtomicU64::new(synced_len),
            syncs: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
        };
        Ok(WriteAheadLog {
            writer: BufWriter::new(file),
            durable: Arc::new(durable),
            path: path.to_path_buf(),
            appended,
            base: 0,
            len,
            sync_attempts: 0,
            fault: None,
            frame: Vec::new(),
        })
    }

    /// Install a seeded fsync fault plan (crash-torture harnesses). The
    /// plan survives truncation but not re-open.
    pub fn set_fault_plan(&mut self, plan: WalFaultPlan, seed: u64) {
        self.fault = Some((plan, SplitMix64::new(seed ^ 0x57A1_F5C4_0DD5_EED5)));
    }

    /// Whether a failed sync has poisoned the log (re-open to clear).
    pub fn is_poisoned(&self) -> bool {
        self.durable.poisoned.load(Ordering::SeqCst)
    }

    fn check_poisoned(&self) -> Result<()> {
        if self.is_poisoned() {
            return Err(DeviceError::Poisoned.into());
        }
        Ok(())
    }

    /// Read every intact frame of the log at `path` (stopping at the
    /// first torn/corrupt frame), then reopen it for appending, cutting
    /// only the torn tail: the intact prefix is never rewritten, so a
    /// failure or a second crash in here loses nothing the log held.
    pub fn open_and_replay<P: AsRef<Path>>(path: P) -> Result<(Self, Vec<Request>)> {
        Self::recover(path.as_ref(), None)
    }

    /// [`WriteAheadLog::open_and_replay`], with a fault plan armed for the
    /// fsync that closes the recovery.
    fn recover(path: &Path, fault: Option<(WalFaultPlan, u64)>) -> Result<(Self, Vec<Request>)> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(DeviceError::Io(e).into()),
        };
        // No file, or one cut before its header was whole: no frame yet.
        let Some((header, frames)) = bytes.split_first_chunk::<{ WAL_HEADER_LEN as usize }>()
        else {
            return Ok((Self::create(path)?, Vec::new()));
        };
        if *header != file_header() {
            return Err(LsmError::Codec(format!(
                "{}: not a write-ahead log of version {WAL_VERSION}: it starts {header:02x?} \
                 (version 1 had no file header)",
                path.display()
            )));
        }
        let mut requests = Vec::new();
        let mut rest = frames;
        while let Some((head, tail)) = rest.split_first_chunk::<FRAME_HEADER_LEN>() {
            let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
            let Some(payload) = tail.get(..len) else {
                break; // torn tail
            };
            if checksum::sum64(0, payload).to_le_bytes() != head[4..] {
                break; // corrupt tail
            }
            match Self::decode_request(payload) {
                Some(req) => requests.push(req),
                None => break,
            }
            rest = &tail[len..];
        }
        let pos = bytes.len() - rest.len();
        let mut file = OpenOptions::new().write(true).open(path).map_err(DeviceError::Io)?;
        if pos < bytes.len() {
            file.set_len(pos as u64).map_err(DeviceError::Io)?;
        }
        file.seek(SeekFrom::End(0)).map_err(DeviceError::Io)?;
        let mut wal = Self::over(file, path, requests.len() as u64, pos as u64, 0)?;
        if let Some((plan, seed)) = fault {
            wal.set_fault_plan(plan, seed);
        }
        // The cut is file metadata, and after a process crash the prefix
        // itself may have been page cache only: one fsync before either is
        // reported as synced.
        wal.note_sync().finish()?;
        Ok((wal, requests))
    }

    /// Bytes `req` takes in the log, framing included.
    pub(crate) fn frame_len(req: &Request) -> usize {
        match req {
            Request::Put(_, payload) => FRAME_HEADER_LEN + 13 + payload.len(),
            Request::Delete(_) => FRAME_HEADER_LEN + 9,
        }
    }

    /// Append `req`'s frame to `out` (module docs give the format). Needs
    /// nothing of a log, so a front-end encodes — and checksums — a run
    /// before it takes the lock that guards the log.
    pub(crate) fn encode_frame(req: &Request, out: &mut Vec<u8>) {
        let frame = out.len();
        out.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
        match req {
            Request::Put(k, payload) => {
                out.push(0u8);
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                out.extend_from_slice(payload);
            }
            Request::Delete(k) => {
                out.push(1u8);
                out.extend_from_slice(&k.to_le_bytes());
            }
        }
        let payload = frame + FRAME_HEADER_LEN;
        let len = (out.len() - payload) as u32;
        let sum = checksum::sum64(0, &out[payload..]);
        out[frame..frame + 4].copy_from_slice(&len.to_le_bytes());
        out[frame + 4..payload].copy_from_slice(&sum.to_le_bytes());
    }

    fn decode_request(payload: &[u8]) -> Option<Request> {
        let op = *payload.first()?;
        let key = Key::from_le_bytes(payload.get(1..9)?.try_into().ok()?);
        match op {
            0 => {
                let plen = u32::from_le_bytes(payload.get(9..13)?.try_into().ok()?) as usize;
                let body = payload.get(13..13 + plen)?;
                if payload.len() != 13 + plen {
                    return None;
                }
                Some(Request::Put(key, Bytes::copy_from_slice(body)))
            }
            1 if payload.len() == 9 => Some(Request::Delete(key)),
            _ => None,
        }
    }

    /// Append one request (buffered; call [`WriteAheadLog::sync`] to make
    /// it crash-durable), encoded into a buffer the log keeps. Returns the
    /// number of bytes appended, framing included.
    pub fn append(&mut self, req: &Request) -> Result<usize> {
        let mut frame = std::mem::take(&mut self.frame);
        frame.clear();
        Self::encode_frame(req, &mut frame);
        let res = self.append_frames(&frame, 1);
        self.frame = frame;
        res.map(|()| Self::frame_len(req))
    }

    /// Append the already encoded frames of `requests` requests: one
    /// `write_all`, which the buffer passes straight to the file when the
    /// run is larger than it.
    fn append_frames(&mut self, frames: &[u8], requests: u64) -> Result<()> {
        self.check_poisoned()?;
        self.writer.write_all(frames).map_err(DeviceError::Io)?;
        self.appended += requests;
        self.len += frames.len() as u64;
        Ok(())
    }

    /// Flush and fsync. A no-op (no fsync issued or counted) when
    /// everything appended is already durable.
    pub fn sync(&mut self) -> Result<()> {
        self.begin_sync()?.finish().map(drop)
    }

    /// First half of a sync (module docs): flush the userspace buffer and
    /// note the length the second half will publish. The fault-injection
    /// decision is taken here, so attempts are numbered in the order the
    /// syncs began, whatever order they finish in.
    pub(crate) fn begin_sync(&mut self) -> Result<PendingSync> {
        self.check_poisoned()?;
        if self.durable.synced.load(Ordering::SeqCst) == self.pos() {
            return Ok(self.pending(Fsync::NotNeeded));
        }
        // Flush userspace buffers first: an injected fsync failure models
        // the kernel losing dirty pages, not the process losing its own
        // buffer, so the bytes must be on the file (torn-tail material).
        self.writer.flush().map_err(DeviceError::Io)?;
        Ok(self.note_sync())
    }

    /// Count a sync attempt over everything written to the file so far and
    /// consult the fault plan for it; shared by
    /// [`begin_sync`](WriteAheadLog::begin_sync),
    /// [`truncate`](WriteAheadLog::truncate) and recovery.
    fn note_sync(&mut self) -> PendingSync {
        let attempt = self.sync_attempts;
        self.sync_attempts += 1;
        let injected = match &mut self.fault {
            Some((plan, rng)) => {
                plan.fail_sync_at == Some(attempt)
                    || (plan.sync_error_rate > 0.0 && rng.chance(plan.sync_error_rate))
            }
            None => false,
        };
        let fsync = if injected { Fsync::Injected(attempt) } else { Fsync::Real };
        self.pending(fsync)
    }

    fn pending(&self, fsync: Fsync) -> PendingSync {
        PendingSync { durable: Arc::clone(&self.durable), at: self.pos(), fsync }
    }

    /// Where the log ends, as a position (module docs).
    pub(crate) fn pos(&self) -> u64 {
        self.base + self.len
    }

    /// The log step of a run of requests in the one write loop
    /// (`Shard::apply`): append `frames` — the run's frames, from
    /// [`WriteAheadLog::encode_frame`] — in one write and report each
    /// request's append (one `wal_append` span, one
    /// [`observe::Event::WalAppend`] per request). Returns where the log
    /// ends after the run: the position its requests must see durable
    /// before they may be acknowledged. The caller validates the run first:
    /// a request the tree would refuse must never reach the log, or replay
    /// refuses it too and recovery aborts.
    pub(crate) fn log_run(
        &mut self,
        run: &[Request],
        frames: &[u8],
        sink: &observe::SinkHandle,
    ) -> Result<u64> {
        debug_assert_eq!(run.iter().map(Self::frame_len).sum::<usize>(), frames.len());
        let _span = sink.span(observe::SpanOp::wal_append());
        self.append_frames(frames, run.len() as u64)?;
        if sink.is_enabled() {
            for req in run {
                sink.emit(observe::Event::WalAppend { bytes: Self::frame_len(req) as u64 });
            }
        }
        Ok(self.pos())
    }

    /// Discard every frame (after a checkpoint made them redundant). The
    /// log's position stays where it ended (module docs).
    pub fn truncate(&mut self) -> Result<()> {
        self.check_poisoned()?;
        self.writer.flush().map_err(DeviceError::Io)?;
        self.writer.get_ref().set_len(WAL_HEADER_LEN).map_err(DeviceError::Io)?;
        // The new length is file metadata: without an fsync the kernel
        // may persist the *old* length across a power cut, resurrecting
        // pre-checkpoint frames that recovery would then replay on top of
        // the fresh manifest. The fsync goes through the same injection
        // and poison logic as `sync` — a failed truncate leaves the log
        // unusable until re-open, never half-truncated-but-trusted.
        self.note_sync().finish()?;
        // Back to the end of the header, or the next append would leave a
        // hole.
        self.writer.seek(SeekFrom::Start(WAL_HEADER_LEN)).map_err(DeviceError::Io)?;
        self.appended = 0;
        self.base += self.len - WAL_HEADER_LEN;
        self.len = WAL_HEADER_LEN;
        self.durable.synced.fetch_max(self.pos(), Ordering::SeqCst);
        Ok(())
    }

    /// Requests appended since creation/truncation.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Length of the log as a file offset: the 8-byte file header plus
    /// every frame appended since creation/truncation (buffered included).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Bytes of the log known crash-durable (appended before the last
    /// [`WriteAheadLog::sync`] began).
    pub fn synced_len(&self) -> u64 {
        self.durable.synced.load(Ordering::SeqCst) - self.base
    }

    /// Fsyncs issued over the log's lifetime.
    pub fn syncs(&self) -> u64 {
        self.durable.syncs.load(Ordering::SeqCst)
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LsmConfig;
    use crate::tree::TreeOptions;
    use crate::ShardedLsmTree;
    use sim_ssd::BlockDevice;

    fn wal_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lsm-wal-{}-{tag}.wal", std::process::id()))
    }

    fn put(k: Key, v: u8) -> Request {
        Request::Put(k, Bytes::from(vec![v; 4]))
    }

    #[test]
    fn wal_round_trips_requests() {
        let path = wal_path("roundtrip");
        let reqs = vec![
            put(1, 10),
            Request::Delete(2),
            put(3, 30),
            put(u64::MAX, 255),
            Request::Delete(0),
        ];
        {
            let mut wal = WriteAheadLog::create(&path).unwrap();
            for r in &reqs {
                wal.append(r).unwrap();
            }
            wal.sync().unwrap();
            assert_eq!(wal.appended(), 5);
        }
        let (wal, replayed) = WriteAheadLog::open_and_replay(&path).unwrap();
        assert_eq!(replayed, reqs);
        assert_eq!(wal.appended(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped_cleanly() {
        let path = wal_path("torn");
        {
            let mut wal = WriteAheadLog::create(&path).unwrap();
            wal.append(&put(1, 1)).unwrap();
            wal.append(&put(2, 2)).unwrap();
            wal.sync().unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the end.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (_, replayed) = WriteAheadLog::open_and_replay(&path).unwrap();
        assert_eq!(replayed, vec![put(1, 1)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_log_of_another_format_is_refused_not_replayed_as_torn() {
        let path = wal_path("format");
        // Format 1: no file header, frames of `len u32 | sum u32 | payload`
        // (the sum's value is beside the point: nothing may get that far).
        let mut old = Vec::new();
        for key in 0..3u64 {
            old.extend_from_slice(&17u32.to_le_bytes());
            old.extend_from_slice(&0x5DBE_4E99u32.to_le_bytes());
            old.push(0);
            old.extend_from_slice(&key.to_le_bytes());
            old.extend_from_slice(&4u32.to_le_bytes());
            old.extend_from_slice(&[key as u8; 4]);
        }
        let mut newer = file_header().to_vec();
        newer[4] += 1;
        for bytes in [&old, &newer] {
            std::fs::write(&path, bytes).unwrap();
            match WriteAheadLog::open_and_replay(&path) {
                Err(LsmError::Codec(msg)) => assert!(msg.contains("version 2"), "{msg}"),
                Err(other) => panic!("expected a codec error, got {other}"),
                Ok((_, replayed)) => {
                    panic!("replayed {} requests of a foreign log", replayed.len())
                }
            }
            assert_eq!(&std::fs::read(&path).unwrap(), bytes, "a refused log is left as it was");
        }
        // Cut inside the header, nothing can have been appended: a fresh log.
        for cut in 0..WAL_HEADER_LEN as usize {
            std::fs::write(&path, &file_header()[..cut]).unwrap();
            let (wal, replayed) = WriteAheadLog::open_and_replay(&path).unwrap();
            assert!(replayed.is_empty());
            assert_eq!((wal.len_bytes(), wal.synced_len()), (WAL_HEADER_LEN, WAL_HEADER_LEN));
            drop(wal);
            assert_eq!(std::fs::read(&path).unwrap(), file_header());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recovery_cuts_the_torn_tail_and_rewrites_nothing() {
        // Regression: recovery used to truncate the log to zero, re-append
        // every request and fsync — a crash or a failed fsync inside that
        // window lost every acknowledged request, and a clean recovery
        // rewrote the whole log for nothing.
        let path = wal_path("recover-in-place");
        let acked = {
            let mut wal = WriteAheadLog::create(&path).unwrap();
            for k in 0..5u64 {
                wal.append(&put(k, k as u8)).unwrap();
            }
            wal.sync().unwrap();
            wal.append(&Request::Delete(9)).unwrap();
            wal.synced_len()
        }; // dropped: the unsynced delete is flushed, never fsynced
        let intact = std::fs::read(&path).unwrap();
        assert_eq!(intact.len() as u64, acked + 21);
        let mut torn = intact.clone();
        // A frame the crash cut short, inside its 12-byte header.
        torn.extend_from_slice(&intact[WAL_HEADER_LEN as usize..][..11]);
        std::fs::write(&path, &torn).unwrap();

        // The fsync that closes the recovery fails: nothing but the torn
        // tail may have gone.
        let failing = Some((WalFaultPlan::none().fail_sync_at(0), 3));
        assert!(WriteAheadLog::recover(&path, failing).is_err());
        assert!(std::fs::read(&path).unwrap() == intact, "recovery touched the intact prefix");
        // The host dies with it; what was known synced comes back.
        OpenOptions::new().write(true).open(&path).unwrap().set_len(acked).unwrap();
        let (wal, replayed) = WriteAheadLog::open_and_replay(&path).unwrap();
        assert_eq!(replayed, (0..5u64).map(|k| put(k, k as u8)).collect::<Vec<_>>());
        assert_eq!((wal.appended(), wal.len_bytes(), wal.synced_len()), (5, acked, acked));
        drop(wal);

        // A clean recovery does not write to the file at all (its mtime
        // stays), and appends go on from the end.
        let long_ago = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(86_400);
        OpenOptions::new().write(true).open(&path).unwrap().set_modified(long_ago).unwrap();
        let (mut wal, _) = WriteAheadLog::open_and_replay(&path).unwrap();
        assert!(std::fs::read(&path).unwrap() == intact[..acked as usize]);
        assert_eq!(std::fs::metadata(&path).unwrap().modified().unwrap(), long_ago);
        wal.append(&put(7, 7)).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, replayed) = WriteAheadLog::open_and_replay(&path).unwrap();
        assert_eq!(replayed.len(), 6);
        assert_eq!(replayed[5], put(7, 7));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_sync_publishes_the_length_it_noted() {
        let path = wal_path("noted");
        let mut wal = WriteAheadLog::create(&path).unwrap();
        wal.append(&put(1, 1)).unwrap();
        let first = wal.begin_sync().unwrap();
        let frame = wal.len_bytes() - WAL_HEADER_LEN;
        wal.append(&put(2, 2)).unwrap();
        let second = wal.begin_sync().unwrap();
        assert_eq!(wal.synced_len(), WAL_HEADER_LEN, "a sync only begun makes nothing durable");
        // Syncs that overlap may finish in either order.
        assert_eq!(second.finish().unwrap(), wal.pos());
        assert_eq!(first.finish().unwrap(), wal.pos(), "durable already, beyond its note");
        assert_eq!((wal.synced_len(), wal.syncs()), (wal.len_bytes(), 2));
        wal.append(&put(3, 3)).unwrap();
        let third = wal.begin_sync().unwrap();
        wal.append(&put(4, 4)).unwrap();
        let after = |frames| WAL_HEADER_LEN + frames * frame;
        assert_eq!(third.finish().unwrap(), after(3), "the noted length, not the current one");
        assert_eq!(wal.begin_sync().unwrap().finish().unwrap(), after(4));
        assert_eq!(wal.syncs(), 4);
        wal.sync().unwrap();
        assert_eq!(wal.syncs(), 4, "nothing new: no fsync");
        // A truncation leaves the position where the log ended: a sync
        // begun before it publishes nothing after it, and every position
        // after the cut lies beyond every one before.
        wal.append(&put(5, 5)).unwrap();
        let stale = wal.begin_sync().unwrap();
        wal.truncate().unwrap();
        let cut = wal.pos();
        assert_eq!((cut, wal.len_bytes()), (after(5), WAL_HEADER_LEN));
        wal.append(&put(6, 6)).unwrap();
        assert_eq!(wal.pos(), after(6));
        assert_eq!(stale.finish().unwrap(), cut, "a stale sync publishes the cut, no more");
        assert_eq!(wal.synced_len(), WAL_HEADER_LEN);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_frame_stops_replay() {
        let path = wal_path("corrupt");
        {
            let mut wal = WriteAheadLog::create(&path).unwrap();
            for i in 0..5u64 {
                wal.append(&put(i, i as u8)).unwrap();
            }
            wal.sync().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replayed) = WriteAheadLog::open_and_replay(&path).unwrap();
        assert!(replayed.len() < 5, "corruption must cut the replay short");
        // Whatever survived is a strict prefix.
        for (i, r) in replayed.iter().enumerate() {
            assert_eq!(*r, put(i as u64, i as u8));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_resets_the_log() {
        let path = wal_path("trunc");
        let mut wal = WriteAheadLog::create(&path).unwrap();
        wal.append(&put(1, 1)).unwrap();
        wal.truncate().unwrap();
        assert_eq!(wal.appended(), 0);
        wal.append(&put(2, 2)).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, replayed) = WriteAheadLog::open_and_replay(&path).unwrap();
        assert_eq!(replayed, vec![put(2, 2)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_fsyncs_the_parent_directory() {
        let path = wal_path("dirsync");
        let before = sim_ssd::dir_syncs();
        let _wal = WriteAheadLog::create(&path).unwrap();
        assert!(
            sim_ssd::dir_syncs() > before,
            "creating a WAL must fsync its directory or the file itself may not survive a crash"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_fsyncs_the_empty_log() {
        let path = wal_path("truncsync");
        let mut wal = WriteAheadLog::create(&path).unwrap();
        wal.append(&put(1, 1)).unwrap();
        wal.sync().unwrap();
        let syncs_before = wal.syncs();
        wal.truncate().unwrap();
        // Regression: truncation used to set_len(0) without fsync, so a
        // power cut could resurrect the old length — and replay stale
        // frames over a checkpoint that had already absorbed them.
        assert_eq!(wal.syncs(), syncs_before + 1, "truncate must fsync the new length");
        assert_eq!((wal.synced_len(), wal.len_bytes()), (WAL_HEADER_LEN, WAL_HEADER_LEN));
        assert_eq!(std::fs::read(&path).unwrap(), file_header(), "the header stays");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_fault_fails_truncate_and_poisons() {
        let path = wal_path("truncfault");
        let mut wal = WriteAheadLog::create(&path).unwrap();
        wal.append(&put(1, 1)).unwrap();
        wal.sync().unwrap(); // attempt 0 succeeds
        wal.set_fault_plan(WalFaultPlan::none().fail_sync_at(1), 9);
        assert!(wal.truncate().is_err(), "truncate's fsync is fault-injectable");
        assert!(wal.is_poisoned(), "a failed truncate must poison the log");
        assert!(wal.append(&put(2, 2)).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_wal_replays_empty() {
        let path = wal_path("missing");
        std::fs::remove_file(&path).ok();
        let (_, replayed) = WriteAheadLog::open_and_replay(&path).unwrap();
        assert!(replayed.is_empty());
        std::fs::remove_file(&path).ok();
    }

    // A crash-durable index is a one-shard `ShardedLsmTree` with a WAL
    // directory: each shard checkpoints to `shard-<i>.manifest` beside its
    // `shard-<i>.wal`, and recovery restores the manifest, then replays.

    fn durable_cfg() -> LsmConfig {
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

    fn durable_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lsm-dur-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn create(dir: &Path, opts: TreeOptions, dev: Arc<dyn BlockDevice>) -> ShardedLsmTree {
        ShardedLsmTree::with_backend(durable_cfg(), opts, vec![dev], Some(dir), None).unwrap()
    }

    fn recover(dir: &Path, opts: TreeOptions, dev: Arc<dyn BlockDevice>) -> ShardedLsmTree {
        ShardedLsmTree::recover_with_backend(durable_cfg(), opts, vec![dev], dir, None).unwrap()
    }

    fn mem_dev() -> Arc<dyn BlockDevice> {
        Arc::new(sim_ssd::MemDevice::with_block_size(1 << 13, 256))
    }

    /// Bytes a 4-byte put takes in the log.
    const PUT_FRAME: u64 = FRAME_HEADER_LEN as u64 + 13 + 4;

    #[test]
    fn durable_tree_survives_a_crash() {
        let dir = durable_dir("crash");
        let dev_path = dir.join("shard-0.dev");
        {
            let dev = sim_ssd::FileDevice::create_with_block_size(&dev_path, 1 << 13, 256).unwrap();
            let t = create(&dir, TreeOptions::default(), Arc::new(dev));
            for k in 0..800u64 {
                t.put(k, vec![(k % 251) as u8; 4]).unwrap();
            }
            t.checkpoint().unwrap();
            // Post-checkpoint writes live only in the WAL.
            for k in 800..1_000u64 {
                t.put(k, vec![7u8; 4]).unwrap();
            }
            for k in (0..100u64).step_by(2) {
                t.delete(k).unwrap();
            }
            t.sync_wals().unwrap();
            assert!(t.wal_lens()[0] > WAL_HEADER_LEN);
            std::mem::forget(t); // crash: no clean shutdown, no checkpoint
        }
        let dev = Arc::new(sim_ssd::FileDevice::open(&dev_path, 256).unwrap());
        let t = recover(&dir, TreeOptions::default(), dev);
        for k in 0..1_000u64 {
            let got = t.get(k).unwrap();
            if k < 100 && k % 2 == 0 {
                assert_eq!(got, None, "deleted key {k} resurrected");
            } else if k < 800 {
                assert_eq!(got.as_deref(), Some(&vec![(k % 251) as u8; 4][..]), "key {k}");
            } else {
                assert_eq!(got.as_deref(), Some(&[7u8; 4][..]), "post-checkpoint key {k}");
            }
        }
        t.deep_verify(true).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refused_put_never_reaches_the_log() {
        // Regression: `apply` logged before the tree checked the record
        // size, so a refused put stayed in the WAL and recovery aborted on
        // it — losing every acked write after it.
        let dir = durable_dir("refused");
        let dev = mem_dev();
        let t = create(&dir, TreeOptions::default(), Arc::clone(&dev));
        t.put(1, vec![1u8; 4]).unwrap();
        t.checkpoint().unwrap();
        let logged = t.wal_lens();
        let err = t.put(2, vec![0u8; 4096]).unwrap_err();
        assert!(matches!(err, crate::LsmError::RecordTooLarge { .. }), "{err}");
        assert_eq!(t.wal_lens(), logged, "a refused request must not grow the log");
        t.put(3, vec![3u8; 4]).unwrap();
        t.sync_wals().unwrap();
        std::mem::forget(t); // crash
        let r = recover(&dir, TreeOptions::default(), dev);
        assert_eq!(r.get(1).unwrap().as_deref(), Some(&[1u8; 4][..]));
        assert_eq!(r.get(2).unwrap(), None);
        assert_eq!(r.get(3).unwrap().as_deref(), Some(&[3u8; 4][..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_group_apply_after_a_checkpoint_is_durable_by_its_own_fsync() {
        // The log's truncation restarts its offsets: an apply after it must
        // still lead an fsync of its own, not ride on an offset synced
        // before the checkpoint.
        let dir = durable_dir("group");
        let opts = TreeOptions::builder().group_commit(crate::CommitMode::Group).build();
        let dev = mem_dev();
        let t = create(&dir, opts.clone(), Arc::clone(&dev));
        for k in 0..20u64 {
            t.put(k, vec![1u8; 4]).unwrap();
        }
        t.checkpoint().unwrap();
        let before = t.wal_fsyncs();
        t.put(99, vec![9u8; 4]).unwrap();
        assert_eq!(t.wal_fsyncs(), before + 1, "a group apply is acknowledged by one fsync");
        assert_eq!(t.wal_synced_lens(), t.wal_lens());
        std::mem::forget(t); // crash right after the ack
        let r = recover(&dir, opts, dev);
        assert_eq!(r.get(99).unwrap().as_deref(), Some(&[9u8; 4][..]));
        assert_eq!(r.get(3).unwrap().as_deref(), Some(&[1u8; 4][..]));
        let replayed = r.wal_lens()[0] - WAL_HEADER_LEN;
        assert_eq!(replayed, PUT_FRAME, "only the request after the checkpoint is replayed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_empties_the_backlog() {
        let dir = durable_dir("backlog");
        let t = create(&dir, TreeOptions::default(), mem_dev());
        t.put(1, vec![1u8; 4]).unwrap();
        assert_eq!(t.wal_lens(), [WAL_HEADER_LEN + PUT_FRAME]);
        t.checkpoint().unwrap();
        assert_eq!(t.wal_lens(), [WAL_HEADER_LEN]);
        assert!(dir.join("shard-0.manifest").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
