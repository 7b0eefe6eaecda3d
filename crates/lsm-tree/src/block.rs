//! Data blocks — the B+tree leaves of every on-SSD level.
//!
//! A data block is a fixed-size frame holding a sorted run of records. A
//! [`BlockHandle`] is the in-memory fence entry describing one block: its
//! physical id, key range, and record counts. The ordered list of handles
//! for a level plays the role of the paper's cached internal B+tree nodes
//! (§II-A: "in practice, the internal B+tree nodes of these levels are
//! cached in main memory"); handle metadata is all a merge policy needs to
//! select ranges (§III-C: "there is no need to scan actual data").

use std::sync::Arc;

use bytes::Bytes;

use crate::bloom::BloomFilter;
use crate::checksum;
use crate::error::{LsmError, Result};
use crate::record::{Key, OpKind, Record};

/// Bytes of block header: magic (4) + record count (4) + checksum (4) +
/// reserved (4).
pub const BLOCK_HEADER_LEN: usize = 16;

/// Bytes of per-record header: key (8) + op (1) + payload length (4).
const RECORD_HEADER_LEN: usize = 13;

const BLOCK_MAGIC: u32 = 0x4C_53_4D_42; // "LSMB"

/// A decoded data block: records sorted by key, unique keys.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DataBlock {
    /// The records, in strictly increasing key order.
    pub records: Vec<Record>,
}

impl DataBlock {
    /// Build a block from records that must already be sorted and unique.
    pub fn new(records: Vec<Record>) -> Self {
        debug_assert!(
            records.windows(2).all(|w| w[0].key < w[1].key),
            "records must be sorted and unique"
        );
        DataBlock { records }
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the block has no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Smallest key (panics on empty block).
    #[inline]
    pub fn min_key(&self) -> Key {
        self.records[0].key
    }

    /// Largest key (panics on empty block).
    #[inline]
    pub fn max_key(&self) -> Key {
        self.records[self.records.len() - 1].key
    }

    /// Number of tombstone records.
    pub fn tombstones(&self) -> u32 {
        self.records.iter().filter(|r| r.is_tombstone()).count() as u32
    }

    /// Binary-search a key within the block.
    pub fn find(&self, key: Key) -> Option<&Record> {
        self.records.binary_search_by_key(&key, |r| r.key).ok().map(|i| &self.records[i])
    }

    /// Serialize into a frame of exactly `block_size` bytes: one buffer,
    /// written once.
    ///
    /// Layout (little-endian): `magic u32 | count u32 | checksum u32 |
    /// reserved u32 (zero)`, then per record `key u64 | op u8 | payload_len
    /// u32 | payload`, then zero padding up to `block_size`.
    pub fn encode(&self, block_size: usize) -> Result<Bytes> {
        let body_len: usize = self.records.iter().map(Record::encoded_len).sum();
        if BLOCK_HEADER_LEN + body_len > block_size {
            return Err(LsmError::RecordTooLarge {
                record_bytes: body_len,
                block_payload_bytes: block_size.saturating_sub(BLOCK_HEADER_LEN),
            });
        }
        let count = self.records.len() as u32;
        let mut buf = vec![0u8; block_size];
        buf[0..4].copy_from_slice(&BLOCK_MAGIC.to_le_bytes());
        buf[4..8].copy_from_slice(&count.to_le_bytes());
        let mut off = BLOCK_HEADER_LEN;
        for r in &self.records {
            let payload_at = off + RECORD_HEADER_LEN;
            let head = &mut buf[off..payload_at];
            head[0..8].copy_from_slice(&r.key.to_le_bytes());
            head[8] = match r.op {
                OpKind::Put => 0,
                OpKind::Delete => 1,
            };
            head[9..13].copy_from_slice(&(r.payload.len() as u32).to_le_bytes());
            off = payload_at + r.payload.len();
            buf[payload_at..off].copy_from_slice(&r.payload);
        }
        let sum = frame_checksum(count, &buf);
        buf[8..12].copy_from_slice(&sum.to_le_bytes());
        Ok(Bytes::from(buf))
    }

    /// [`encode`](DataBlock::encode), then re-point every payload at the
    /// frame just written. The returned block owns exactly that one buffer:
    /// whatever its payloads viewed before (the input frames of a merge, a
    /// caller's put buffers) is released.
    pub fn seal(mut self, block_size: usize) -> Result<(Bytes, DataBlock)> {
        let frame = self.encode(block_size)?;
        let mut off = BLOCK_HEADER_LEN;
        for r in &mut self.records {
            let payload_at = off + RECORD_HEADER_LEN;
            off = payload_at + r.payload.len();
            r.payload = frame.slice(payload_at..off);
        }
        Ok((frame, self))
    }

    /// Decode a frame previously produced by [`DataBlock::encode`].
    ///
    /// Zero-copy: every payload of the returned block is a view into
    /// `frame`, so the block (and any payload cloned out of it) keeps that
    /// one buffer alive and allocates nothing per record.
    ///
    /// Any single-bit flip anywhere in the frame is rejected: the magic and
    /// the reserved word are compared exactly, a flip in the stored checksum
    /// no longer matches the computed one, and the record count (as the
    /// seed) and every byte after the header (as the data) enter the
    /// checksum, which by the argument in [`crate::checksum`] changes. The
    /// bytes after the last record must additionally be zero — checked
    /// unconditionally, not through the checksum.
    pub fn decode(frame: &Bytes) -> Result<DataBlock> {
        let data: &[u8] = frame;
        if data.len() < BLOCK_HEADER_LEN {
            return Err(LsmError::Codec("frame shorter than header".into()));
        }
        let magic = le_u32(&data[0..4]);
        if magic != BLOCK_MAGIC {
            return Err(LsmError::Codec(format!("bad magic 0x{magic:08x}")));
        }
        let count = le_u32(&data[4..8]);
        if data[12..16] != [0, 0, 0, 0] {
            return Err(LsmError::Codec("reserved header bytes not zero".into()));
        }
        if frame_checksum(count, data) != le_u32(&data[8..12]) {
            return Err(LsmError::Codec("checksum mismatch".into()));
        }
        // The count comes from the frame: bound it by what the frame could
        // hold before sizing anything by it.
        let count = count as usize;
        if count > (data.len() - BLOCK_HEADER_LEN) / RECORD_HEADER_LEN {
            return Err(LsmError::Codec(format!("record count {count} exceeds frame")));
        }
        let mut records = Vec::with_capacity(count);
        let mut off = BLOCK_HEADER_LEN;
        for _ in 0..count {
            let Some(head) = data.get(off..off + RECORD_HEADER_LEN) else {
                return Err(LsmError::Codec("truncated record header".into()));
            };
            let key = u64::from_le_bytes(head[0..8].try_into().expect("8 bytes"));
            let op = match head[8] {
                0 => OpKind::Put,
                1 => OpKind::Delete,
                other => return Err(LsmError::Codec(format!("bad op tag {other}"))),
            };
            let plen = le_u32(&head[9..13]) as usize;
            off += RECORD_HEADER_LEN;
            if plen > data.len() - off {
                return Err(LsmError::Codec("truncated payload".into()));
            }
            records.push(Record { key, op, payload: frame.slice(off..off + plen) });
            off += plen;
        }
        if data[off..].iter().any(|&b| b != 0) {
            return Err(LsmError::Codec("padding after the last record not zero".into()));
        }
        if !records.windows(2).all(|w| w[0].key < w[1].key) {
            return Err(LsmError::Codec("records not sorted/unique".into()));
        }
        Ok(DataBlock { records })
    }
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("4 bytes"))
}

/// The checksum stored in a frame's header: seeded with the record count,
/// over every byte after the header (records and padding).
fn frame_checksum(count: u32, frame: &[u8]) -> u32 {
    checksum::sum32(count, &frame[BLOCK_HEADER_LEN..])
}

/// In-memory fence entry for one on-SSD data block.
#[derive(Debug, Clone)]
pub struct BlockHandle {
    /// Physical block id on the device.
    pub id: sim_ssd::BlockId,
    /// Smallest key stored in the block.
    pub min: Key,
    /// Largest key stored in the block.
    pub max: Key,
    /// Number of records in the block.
    pub count: u32,
    /// Number of tombstones among them (needed to decide whether the block
    /// may be preserved as-is when merging into the bottom level).
    pub tombstones: u32,
    /// Optional per-block Bloom filter over the keys.
    pub bloom: Option<Arc<BloomFilter>>,
}

impl BlockHandle {
    /// Fence entry describing `block` stored at `id`.
    pub fn describe(
        id: sim_ssd::BlockId,
        block: &DataBlock,
        bloom: Option<Arc<BloomFilter>>,
    ) -> Self {
        assert!(!block.is_empty(), "cannot describe an empty block");
        BlockHandle {
            id,
            min: block.min_key(),
            max: block.max_key(),
            count: block.len() as u32,
            tombstones: block.tombstones(),
            bloom,
        }
    }

    /// Does `[min, max]` contain `key`?
    #[inline]
    pub fn contains(&self, key: Key) -> bool {
        self.min <= key && key <= self.max
    }

    /// Does the block's key range intersect `[lo, hi]`?
    #[inline]
    pub fn overlaps(&self, lo: Key, hi: Key) -> bool {
        self.max >= lo && self.min <= hi
    }

    /// Empty record slots given block capacity `b`.
    #[inline]
    pub fn empty_slots(&self, b: usize) -> usize {
        b.saturating_sub(self.count as usize)
    }
}

/// True when `inner` lies wholly inside `outer`'s memory — how the aliasing
/// tests (here, in `store` and in `merge`) tell a view from a copy.
#[cfg(test)]
pub(crate) fn lies_within(inner: &[u8], outer: &[u8]) -> bool {
    let (lo, hi) = (outer.as_ptr() as usize, outer.as_ptr() as usize + outer.len());
    let at = inner.as_ptr() as usize;
    lo <= at && at + inner.len() <= hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_ssd::BlockId;

    fn sample_block() -> DataBlock {
        DataBlock::new(vec![
            Record::put(1, vec![0xA; 4]),
            Record::delete(5),
            Record::put(9, vec![0xB; 2]),
        ])
    }

    /// Decode `bytes` as a frame of its own (tests mutate frames as vectors).
    fn decode_vec(bytes: Vec<u8>) -> Result<DataBlock> {
        DataBlock::decode(&Bytes::from(bytes))
    }

    /// A full paper-geometry block: 36 records of 113 B in a 4 KiB frame.
    fn full_block() -> DataBlock {
        DataBlock::new(
            (0..36u64).map(|k| Record::put(k * 3 + 1, vec![k as u8 ^ 0x5A; 100])).collect(),
        )
    }

    /// Every single-bit flip of `frame` must be rejected.
    fn assert_every_bit_flip_rejected(frame: &Bytes) {
        let mut bad = frame.to_vec();
        for bit in 0..frame.len() * 8 {
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(decode_vec(bad.clone()).is_err(), "flip of bit {bit} undetected");
            bad[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(&bad[..], &frame[..]);
    }

    #[test]
    fn encode_decode_round_trip() {
        let b = sample_block();
        let frame = b.encode(128).unwrap();
        assert_eq!(frame.len(), 128);
        let d = DataBlock::decode(&frame).unwrap();
        assert_eq!(d, b);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let b = sample_block();
        let mut frame = b.encode(128).unwrap().to_vec();
        frame[0] ^= 0xFF;
        assert!(decode_vec(frame).is_err());
    }

    #[test]
    fn every_bit_flip_of_a_full_4k_frame_is_rejected() {
        let frame = full_block().encode(4096).unwrap();
        assert_eq!(frame.len() * 8, 32_768);
        assert!(DataBlock::decode(&frame).is_ok());
        assert_every_bit_flip_rejected(&frame);
    }

    #[test]
    fn every_bit_flip_of_a_short_padded_frame_is_rejected() {
        // Three records, mostly padding: flips in the padding, and flips of
        // the count that would re-read padding as records, must all fail.
        let frame = sample_block().encode(4096).unwrap();
        assert_every_bit_flip_rejected(&frame);
        // An all-zero record (key 0, Put, empty payload) is indistinguishable
        // from padding byte-wise; the count still protects it.
        let zero = DataBlock::new(vec![Record::put(0, vec![])]).encode(64).unwrap();
        assert_every_bit_flip_rejected(&zero);
        assert_every_bit_flip_rejected(&DataBlock::default().encode(64).unwrap());
    }

    #[test]
    fn nonzero_padding_is_rejected_even_with_a_matching_checksum() {
        // Regression: the padding check used to be folded into the checksum
        // comparison (`!fnv1a(body)` on dirty padding), so a frame storing
        // exactly the value the check produced decoded with garbage in its
        // padding. Build the strongest such frame — dirty padding *and* a
        // checksum recomputed to match — and require a codec error.
        let block = sample_block();
        let mut frame = block.encode(256).unwrap().to_vec();
        let body_end =
            BLOCK_HEADER_LEN + block.records.iter().map(Record::encoded_len).sum::<usize>();
        for pos in [body_end, body_end + 1, 255] {
            let mut bad = frame.clone();
            bad[pos] = 0x80;
            let sum = frame_checksum(block.len() as u32, &bad);
            bad[8..12].copy_from_slice(&sum.to_le_bytes());
            match decode_vec(bad) {
                Err(LsmError::Codec(msg)) => assert!(msg.contains("padding"), "{msg}"),
                other => panic!("dirty padding at {pos} must be a codec error, got {other:?}"),
            }
        }
        // The old bypass value itself (the complement of the stored sum).
        frame[255] = 1;
        let stored = le_u32(&frame[8..12]);
        frame[8..12].copy_from_slice(&(!stored).to_le_bytes());
        assert!(matches!(decode_vec(frame), Err(LsmError::Codec(_))));
    }

    #[test]
    fn hostile_record_count_is_rejected_before_allocating() {
        // A header asking for 2^32 - 1 records, with a checksum that matches:
        // decode must refuse by the frame-size bound, not try to reserve
        // 4 Gi records.
        let mut frame = sample_block().encode(128).unwrap().to_vec();
        for count in [u32::MAX, 1 << 31, 9, 4] {
            frame[4..8].copy_from_slice(&count.to_le_bytes());
            let sum = frame_checksum(count, &frame);
            frame[8..12].copy_from_slice(&sum.to_le_bytes());
            assert!(
                matches!(decode_vec(frame.clone()), Err(LsmError::Codec(_))),
                "count {count} accepted"
            );
        }
        // Frames shorter than a header, or with no room for a checksum.
        for len in 0..BLOCK_HEADER_LEN {
            assert!(decode_vec(vec![0u8; len]).is_err());
        }
    }

    #[test]
    fn decode_is_zero_copy_and_seal_rebacks_onto_the_new_frame() {
        let frame = full_block().encode(4096).unwrap();
        let decoded = DataBlock::decode(&frame).unwrap();
        for r in &decoded.records {
            assert!(lies_within(&r.payload, &frame), "decoded payload was copied");
        }
        // Re-encode records whose payloads are views into `frame` (what a
        // merge does): the sealed block must view only the new frame.
        let (frame2, sealed) = decoded.clone().seal(4096).unwrap();
        assert_eq!(sealed, decoded);
        assert_eq!(frame2, frame);
        for r in &sealed.records {
            assert!(lies_within(&r.payload, &frame2));
            assert!(!lies_within(&r.payload, &frame), "sealed block still pins its input");
        }
        assert_eq!(DataBlock::decode(&frame2).unwrap(), decoded);
    }

    #[test]
    fn encode_rejects_overflow() {
        let b = DataBlock::new(vec![Record::put(1, vec![0; 1000])]);
        assert!(matches!(b.encode(128), Err(LsmError::RecordTooLarge { .. })));
    }

    #[test]
    fn block_accessors() {
        let b = sample_block();
        assert_eq!((b.min_key(), b.max_key(), b.len()), (1, 9, 3));
        assert_eq!(b.tombstones(), 1);
        assert!(b.find(5).unwrap().is_tombstone());
        assert!(b.find(2).is_none());
        assert!(!b.is_empty());
        assert!(DataBlock::default().is_empty());
    }

    #[test]
    fn handle_geometry() {
        let b = sample_block();
        let h = BlockHandle::describe(BlockId(7), &b, None);
        assert_eq!((h.min, h.max, h.count, h.tombstones), (1, 9, 3, 1));
        assert!(h.contains(1) && h.contains(9) && h.contains(5));
        assert!(!h.contains(0) && !h.contains(10));
        assert!(h.overlaps(9, 20) && h.overlaps(0, 1) && h.overlaps(4, 6));
        assert!(!h.overlaps(10, 20) && !h.overlaps(0, 0));
        assert_eq!(h.empty_slots(10), 7);
        assert_eq!(h.empty_slots(2), 0);
    }

    #[test]
    fn empty_block_round_trip() {
        let b = DataBlock::default();
        let frame = b.encode(64).unwrap();
        assert_eq!(DataBlock::decode(&frame).unwrap(), b);
    }

    #[test]
    fn decode_rejects_unsorted() {
        // Hand-build a frame with out-of-order keys but a valid checksum by
        // encoding then swapping records through the public API guard.
        let rec = vec![Record::put(9, vec![]), Record::put(1, vec![])];
        let block = DataBlock { records: rec };
        let frame = block.encode(64).unwrap();
        assert!(DataBlock::decode(&frame).is_err());
    }
}
