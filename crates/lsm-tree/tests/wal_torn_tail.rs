//! Exhaustive torn-tail property test for the write-ahead log.
//!
//! A host crash can leave the WAL file truncated at *any* byte offset, and
//! bad storage can corrupt any single byte. For every such offset this test
//! checks the replay contract: [`WriteAheadLog::open_and_replay`] returns
//! exactly the longest intact prefix of the original request sequence —
//! never an error, never a panic, never a request that was not appended,
//! and never a reordered or altered one. The one exception is the 8-byte
//! file header: a log cut inside it is an empty log, and a log whose header
//! is damaged cannot be told from a file of another format and is refused
//! with a typed error — it is never replayed as "torn at byte 0".

use std::io::Write;
use std::path::PathBuf;

use bytes::Bytes;

use lsm_tree::{LsmError, Request, WriteAheadLog};

/// A small but varied request sequence: puts with growing payloads
/// (including an empty one) interleaved with deletes.
fn requests() -> Vec<Request> {
    let mut reqs = Vec::new();
    for i in 0..10u64 {
        reqs.push(Request::Put(i * 7, Bytes::from(vec![i as u8; i as usize])));
        if i % 3 == 0 {
            reqs.push(Request::Delete(i * 7 + 1));
        }
    }
    reqs
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lsm-wal-tt-{}-{tag}.wal", std::process::id()))
}

/// Write `reqs` through the real appender and return the raw log bytes
/// plus the byte offset at which each frame ends (the first starts where
/// the file header ends). `tag` names the calling
/// test: the tests run on parallel threads of one process, so each needs a
/// scratch file of its own.
fn build_log(reqs: &[Request], tag: &str) -> (Vec<u8>, Vec<usize>) {
    let path = temp_path(&format!("build-{tag}"));
    let mut wal = WriteAheadLog::create(&path).unwrap();
    let mut frame_ends = Vec::with_capacity(reqs.len());
    let mut pos = wal.len_bytes() as usize;
    assert_eq!(pos, 8, "a fresh log is its file header");
    for req in reqs {
        pos += wal.append(req).unwrap();
        frame_ends.push(pos);
    }
    wal.sync().unwrap();
    drop(wal);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(bytes.len(), pos, "appended byte count must match the file");
    (bytes, frame_ends)
}

/// Number of requests whose frames lie entirely within `..offset`.
fn intact_prefix(frame_ends: &[usize], offset: usize) -> usize {
    frame_ends.iter().take_while(|&&end| end <= offset).count()
}

fn replay(path: &PathBuf) -> Vec<Request> {
    let (wal, replayed) = WriteAheadLog::open_and_replay(path).unwrap();
    drop(wal);
    replayed
}

#[test]
fn truncation_at_every_byte_offset_yields_the_intact_prefix() {
    let reqs = requests();
    let (bytes, frame_ends) = build_log(&reqs, "trunc");
    let path = temp_path("trunc");
    for offset in 0..=bytes.len() {
        std::fs::File::create(&path).unwrap().write_all(&bytes[..offset]).unwrap();
        let replayed = replay(&path);
        let expect = intact_prefix(&frame_ends, offset);
        assert_eq!(
            replayed.len(),
            expect,
            "truncation at byte {offset}: got {} requests, expected {expect}",
            replayed.len()
        );
        assert_eq!(replayed, reqs[..expect], "truncation at byte {offset}: prefix differs");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corruption_at_every_byte_offset_yields_a_clean_prefix() {
    let reqs = requests();
    let (bytes, frame_ends) = build_log(&reqs, "flip");
    let path = temp_path("flip");
    for offset in 0..bytes.len() {
        let mut torn = bytes.clone();
        torn[offset] ^= 0xFF;
        std::fs::File::create(&path).unwrap().write_all(&torn).unwrap();
        if offset < 8 {
            match WriteAheadLog::open_and_replay(&path) {
                Err(LsmError::Codec(_)) => continue,
                Err(e) => panic!("flip at header byte {offset}: {e}"),
                Ok(_) => panic!("flip at header byte {offset}: a damaged header was accepted"),
            }
        }
        let replayed = replay(&path);
        // Frames wholly before the flipped byte are untouched; the frame
        // containing it fails its checksum (or its length field walks off
        // the end), and replay must stop right there.
        let expect = intact_prefix(&frame_ends, offset);
        assert_eq!(
            replayed.len(),
            expect,
            "flip at byte {offset}: got {} requests, expected {expect}",
            replayed.len()
        );
        assert_eq!(replayed, reqs[..expect], "flip at byte {offset}: prefix differs");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn replay_rewrites_the_file_to_the_intact_prefix() {
    let reqs = requests();
    let (bytes, frame_ends) = build_log(&reqs, "rewrite");
    let path = temp_path("rewrite");
    // Cut mid-frame, inside the sixth frame's 12-byte header: the file on
    // disk after replay must hold exactly the intact frames, fsynced, so a
    // second crash cannot lose them again.
    let offset = frame_ends[4] + 3;
    std::fs::File::create(&path).unwrap().write_all(&bytes[..offset]).unwrap();
    let first = replay(&path);
    assert_eq!(first.len(), 5);
    let on_disk = std::fs::metadata(&path).unwrap().len() as usize;
    assert_eq!(on_disk, frame_ends[4], "torn bytes must not survive the reopen");
    // Idempotent: replaying the rewritten file yields the same requests.
    assert_eq!(replay(&path), first);
    std::fs::remove_file(&path).ok();
}
