//! Property tests of the two decoders that read bytes a crash or a bad
//! disk may have damaged (ROADMAP item 10c): WAL replay and the manifest.
//! Whatever the bytes, each returns an error or something sound — never a
//! panic, never a state the bytes did not describe.

use std::path::PathBuf;
use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use lsm_tree::checksum::sum64;
use lsm_tree::{LsmConfig, LsmTree, Manifest, PolicySpec, Request, TreeOptions, WriteAheadLog};
use sim_ssd::MemDevice;

fn arb_request() -> impl Strategy<Value = Request> {
    (any::<u64>(), any::<bool>(), prop::collection::vec(any::<u8>(), 0..40)).prop_map(
        |(key, delete, payload)| match delete {
            true => Request::Delete(key),
            false => Request::Put(key, Bytes::from(payload)),
        },
    )
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lsm-prop-dec-{tag}-{}", std::process::id()))
}

/// The bytes of a manifest header: magic, version, checksum.
const MANIFEST_HEADER: usize = 16;

/// Put a valid checksum over whatever body follows the header.
fn reseal(bytes: &mut [u8]) {
    let sum = sum64(0, &bytes[MANIFEST_HEADER..]);
    bytes[8..MANIFEST_HEADER].copy_from_slice(&sum.to_le_bytes());
}

/// A real checkpoint — levels, a memtable, cursors — and its device.
fn checkpoint() -> (Vec<u8>, Arc<MemDevice>) {
    let cfg = LsmConfig {
        block_size: 256,
        payload_size: 4,
        k0_blocks: 4,
        gamma: 4,
        cache_blocks: 64,
        merge_rate: 0.25,
        ..LsmConfig::default()
    };
    let dev = Arc::new(MemDevice::with_block_size(1 << 12, 256));
    let opts = TreeOptions::builder().policy(PolicySpec::ChooseBest).build();
    let mut tree = LsmTree::new(cfg, opts, Arc::clone(&dev) as _).unwrap();
    for k in 0..700u64 {
        tree.put(k * 13 % 997, vec![k as u8; 4]).unwrap();
        if k % 4 == 0 {
            tree.delete(k * 7 % 997).unwrap();
        }
    }
    (Manifest::capture(&tree).encode(), dev)
}

/// Decode and restore `bytes` over `dev`; a restored tree is checked
/// whole. `Err` is a refusal, `Ok(verdict)` what the deep check said.
fn restore(bytes: &[u8], dev: &Arc<MemDevice>) -> Result<Result<(), String>, String> {
    Manifest::decode(bytes).map_err(|e| e.to_string())?;
    let path = temp_path("manifest");
    std::fs::write(&path, bytes).unwrap();
    let restored = LsmTree::restore(&path, TreeOptions::default(), Arc::clone(dev) as _);
    std::fs::remove_file(&path).ok();
    let tree = restored.map_err(|e| e.to_string())?;
    Ok(lsm_tree::verify::check_tree(&tree, true))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Frames, then one damaged byte or none, then junk: replay returns the
    /// frames before the damage — all of them without — and the log it
    /// reopens goes on from there.
    #[test]
    fn wal_replay_of_damaged_bytes_is_the_intact_prefix(
        reqs in prop::collection::vec(arb_request(), 0..12),
        edit in (any::<bool>(), any::<usize>(), 1u16..256),
        junk in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let path = temp_path("wal");
        let mut wal = WriteAheadLog::create(&path).unwrap();
        // Lengths are file offsets: where the frames start, where each ends.
        let first = wal.len_bytes() as usize;
        let mut frame_ends = Vec::new();
        for req in &reqs {
            wal.append(req).unwrap();
            frame_ends.push(wal.len_bytes() as usize);
        }
        wal.sync().unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let mut intact = reqs.len();
        let (damage, pos, xor) = edit;
        if damage && !reqs.is_empty() {
            // A byte inside the frames: the frame holding it and every one
            // after it are lost.
            let pos = first + pos % (bytes.len() - first);
            bytes[pos] ^= xor as u8;
            intact = frame_ends.iter().take_while(|&&end| end <= pos).count();
        }
        bytes.extend_from_slice(&junk);
        std::fs::write(&path, &bytes).unwrap();

        let (mut wal, replayed) = WriteAheadLog::open_and_replay(&path).unwrap();
        prop_assert_eq!(&replayed[..], &reqs[..intact]);
        wal.append(&Request::Delete(7)).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, again) = WriteAheadLog::open_and_replay(&path).unwrap();
        prop_assert_eq!(again.len(), intact + 1);
        prop_assert_eq!(&again[intact], &Request::Delete(7));
        std::fs::remove_file(&path).ok();
    }

    /// A real manifest's geometry, then arbitrary bytes, under a valid
    /// checksum: refused, or a tree the deep check accepts.
    #[test]
    fn manifest_of_arbitrary_bytes_is_refused_or_sound(
        keep in 0usize..4096,
        tail in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let (real, dev) = checkpoint();
        // At least the header and the eight words of geometry, so the
        // counts and the walk behind them are reached.
        let keep = MANIFEST_HEADER + 64 + keep % (real.len() - MANIFEST_HEADER - 63);
        let mut bytes = real[..keep].to_vec();
        bytes.extend_from_slice(&tail);
        reseal(&mut bytes);
        if let Ok(verdict) = restore(&bytes, &dev) {
            prop_assert!(verdict.is_ok(), "restored a tree the deep check refuses: {verdict:?}");
        }
    }

    /// One byte of a real checkpoint changed: the checksum refuses it. Put
    /// a valid checksum over the change, and decode, restore and the deep
    /// check still return — whatever they decide.
    #[test]
    fn manifest_with_one_byte_changed_never_panics(pos in any::<usize>(), xor in 1u16..256) {
        let (real, dev) = checkpoint();
        let mut bytes = real.clone();
        bytes[pos % real.len()] ^= xor as u8;
        prop_assert!(restore(&bytes, &dev).is_err(), "a changed byte at {} passed", pos % real.len());
        if pos % real.len() >= MANIFEST_HEADER {
            reseal(&mut bytes);
            let _ = restore(&bytes, &dev);
        }
    }
}

/// Every byte of a real checkpoint, changed under a valid checksum: no
/// panic anywhere — whether the change is refused, restores a tree the deep
/// check refuses, or restores a sound one.
#[test]
fn every_byte_of_a_resealed_checkpoint_changed_never_panics() {
    let (real, dev) = checkpoint();
    for pos in MANIFEST_HEADER..real.len() {
        for xor in [0x01u8, 0x80, 0xFF] {
            let mut bytes = real.clone();
            bytes[pos] ^= xor;
            reseal(&mut bytes);
            let _ = restore(&bytes, &dev);
        }
    }
}
