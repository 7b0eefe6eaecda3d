//! Property tests of the two decoders that read bytes a crash or a bad
//! disk may have damaged (ROADMAP item 10c): WAL replay and the manifest.
//! Whatever the bytes, each returns an error or something sound — never a
//! panic, never a state the bytes did not describe. The manifests are real
//! checkpoints with Bloom filters and without: a fence entry's filter words
//! are among the bytes a restore takes on trust.

use std::path::PathBuf;
use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use lsm_tree::checksum::sum64;
use lsm_tree::{
    BloomFilter, LsmConfig, LsmError, LsmTree, Manifest, PolicySpec, Request, TreeOptions,
    WriteAheadLog,
};
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

/// A real checkpoint — levels, a memtable, cursors, and per-block filters
/// at `bloom_bits_per_key` (none at 0) — and its device.
fn checkpoint(bloom_bits_per_key: usize) -> (Vec<u8>, Arc<MemDevice>) {
    let cfg = LsmConfig {
        block_size: 256,
        payload_size: 4,
        k0_blocks: 4,
        gamma: 4,
        cache_blocks: 64,
        merge_rate: 0.25,
        bloom_bits_per_key,
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
        filters in any::<bool>(),
    ) {
        let (real, dev) = checkpoint(if filters { 10 } else { 0 });
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
    fn manifest_with_one_byte_changed_never_panics(
        pos in any::<usize>(),
        xor in 1u16..256,
        filters in any::<bool>(),
    ) {
        let (real, dev) = checkpoint(if filters { 10 } else { 0 });
        let mut bytes = real.clone();
        bytes[pos % real.len()] ^= xor as u8;
        prop_assert!(restore(&bytes, &dev).is_err(), "a changed byte at {} passed", pos % real.len());
        if pos % real.len() >= MANIFEST_HEADER {
            reseal(&mut bytes);
            let _ = restore(&bytes, &dev);
        }
    }

    /// The last fence entry's filter words cut short by bytes, padded out
    /// or cut by words with their count to match, or counted wrong with
    /// the words kept, under a valid checksum: a codec error, every time.
    #[test]
    fn manifest_with_filter_words_truncated_extra_or_miscounted_is_refused(
        edit in 0usize..5,
        k in 1usize..4,
        cut in any::<usize>(),
        junk in any::<u64>(),
    ) {
        let (real, _) = checkpoint(10);
        let m = Manifest::decode(&real).unwrap();
        let last = m.levels.last().and_then(|l| l.handles.last()).expect("a bottom block");
        let w = last.bloom.as_ref().expect("filters on").bits().len();
        // The body ends with the last entry's word count, then its words.
        let at = real.len() - 8 * w - 4;
        let mut bytes = real[..at].to_vec();
        let mut words = real[at + 4..].to_vec();
        let count = match edit {
            0 => {
                // Cut anywhere inside the count and the words.
                bytes.extend_from_slice(&real[at..]);
                bytes.truncate(real.len() - 1 - cut % (4 + 8 * w));
                None
            }
            1 => {
                (0..k).for_each(|_| words.extend_from_slice(&junk.to_le_bytes()));
                Some(w + k)
            }
            2 => {
                words.truncate(8 * (w - k.min(w)));
                Some(w - k.min(w))
            }
            3 => Some(w + k),
            _ => Some(w - k.min(w)),
        };
        if let Some(count) = count {
            bytes.extend_from_slice(&(count as u32).to_le_bytes());
            bytes.extend_from_slice(&words);
        }
        reseal(&mut bytes);
        let got = Manifest::decode(&bytes);
        prop_assert!(matches!(got, Err(LsmError::Codec(_))), "edit {edit}, k {k}: {got:?}");
    }

    /// Any fence entry of a real checkpoint given the filter of another
    /// record count — a word fewer or more — or none, or the manifest's
    /// filters kept where its config builds none: refused with a codec
    /// error that says so.
    #[test]
    fn manifest_with_a_filter_of_another_length_is_refused(
        level in any::<usize>(),
        handle in any::<usize>(),
        edit in 0usize..4,
    ) {
        let (real, _) = checkpoint(10);
        let mut m = Manifest::decode(&real).unwrap();
        let n = m.levels.len();
        let lvl = &mut m.levels[level % n];
        prop_assume!(!lvl.handles.is_empty());
        let i = handle % lvl.handles.len();
        let w = lvl.handles[i].bloom.as_ref().expect("filters on").bits().len();
        // 6.4 keys a word at 10 bits a key: a filter of `w ± 1` words.
        let other = |w: usize| BloomFilter::from_bits(64 * w / 10, 10, std::iter::repeat_n(!0, w));
        match edit {
            0 if w > 1 => lvl.handles[i].bloom = other(w - 1),
            1 => lvl.handles[i].bloom = other(w + 1),
            2 => lvl.handles[i].bloom = None,
            _ => m.config.bloom_bits_per_key = 0,
        }
        match Manifest::decode(&m.encode()) {
            Err(LsmError::Codec(msg)) => prop_assert!(msg.contains("filter words"), "{msg}"),
            got => prop_assert!(false, "edit {edit} of a {w}-word filter was accepted: {got:?}"),
        }
    }

    /// A manifest whose version is not 4 — version 3 had no filter words —
    /// is refused by its version, whatever follows.
    #[test]
    fn manifest_of_another_version_is_refused(version in any::<u32>(), filters in any::<bool>()) {
        prop_assume!(version != 4);
        let (mut bytes, _) = checkpoint(if filters { 10 } else { 0 });
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        match Manifest::decode(&bytes) {
            Err(LsmError::Codec(msg)) => {
                prop_assert_eq!(msg, format!("unsupported manifest version {version}"))
            }
            got => prop_assert!(false, "version {version} was accepted: {got:?}"),
        }
    }
}

#[test]
fn a_version_3_manifest_is_refused_by_its_version() {
    for bits in [0, 10] {
        let (mut bytes, _) = checkpoint(bits);
        bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
        match Manifest::decode(&bytes) {
            Err(LsmError::Codec(msg)) => assert_eq!(msg, "unsupported manifest version 3"),
            got => panic!("a version-3 manifest was accepted: {got:?}"),
        }
    }
}

/// Every byte of a real checkpoint, changed under a valid checksum: no
/// panic anywhere — whether the change is refused, restores a tree the deep
/// check refuses, or restores a sound one.
#[test]
fn every_byte_of_a_resealed_checkpoint_changed_never_panics() {
    for bits in [0, 10] {
        let (real, dev) = checkpoint(bits);
        for pos in MANIFEST_HEADER..real.len() {
            for xor in [0x01u8, 0x80, 0xFF] {
                let mut bytes = real.clone();
                bytes[pos] ^= xor;
                reseal(&mut bytes);
                let _ = restore(&bytes, &dev);
            }
        }
    }
}
