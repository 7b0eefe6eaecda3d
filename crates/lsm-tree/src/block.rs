//! Data blocks — the B+tree leaves of every on-SSD level.
//!
//! A data block is a fixed-size frame holding a sorted run of records, and
//! a decoded block *is* its frame: a [`DataBlock`] is the verified bytes
//! plus a small index of each record's key and offset. [`DataBlock::decode`]
//! checks and indexes, a lookup slices the one payload it hits, and a
//! [`FrameBuilder`] makes the next frame by appending records as bytes —
//! whole runs of an input block with one copy — then sealing it once.
//!
//! A [`BlockHandle`] is the in-memory fence entry describing one block: its
//! physical id, key range, and record counts. The ordered list of handles
//! for a level plays the role of the paper's cached internal B+tree nodes
//! (§II-A: "in practice, the internal B+tree nodes of these levels are
//! cached in main memory"); handle metadata is all a merge policy needs to
//! select ranges (§III-C: "there is no need to scan actual data").

use std::ops::Range;

use bytes::Bytes;

use crate::bloom::BloomFilter;
use crate::checksum;
use crate::error::{LsmError, Result};
use crate::record::{Key, OpKind, Record};

/// Bytes of block header: magic (4) + record count (4) + checksum (8).
pub const BLOCK_HEADER_LEN: usize = 16;

/// Bytes of per-record header: key (8) + op (1) + payload length (4).
const RECORD_HEADER_LEN: usize = 13;

/// "LSB2": frames of the second format, whose header carries a 64-bit sum.
/// The first format's ("LSMB": a 32-bit sum, then a reserved zero word) is
/// refused by its magic, before any of it is read as something else.
const BLOCK_MAGIC: u32 = 0x4C53_4232;

/// Op tag of a tombstone (a put is 0).
const OP_DELETE: u8 = 1;

/// One record in a block's index: its key, where it starts in the frame,
/// and whether it is a tombstone — what a search or a merge asks about a
/// record, answered without touching the frame's 4 KiB.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: Key,
    at: u32,
    tombstone: bool,
}

/// A decoded data block: one verified frame and an index of the records in
/// it; records sorted by key, keys unique. The frame is the only buffer a
/// block's bytes live in; a [`Record`] read out of it carries a payload
/// that is a view into that frame and keeps it alive.
#[derive(Debug, Clone)]
pub struct DataBlock {
    /// Header, records, zero padding: what the device holds.
    frame: Bytes,
    /// One slot per record, then one for where the last record ends.
    index: Vec<Slot>,
}

impl DataBlock {
    /// Build a block from records that must already be sorted and unique,
    /// in a frame of exactly the size they need.
    pub fn new(records: Vec<Record>) -> Self {
        debug_assert!(
            records.windows(2).all(|w| w[0].key < w[1].key),
            "records must be sorted and unique"
        );
        let size = BLOCK_HEADER_LEN + records.iter().map(Record::encoded_len).sum::<usize>();
        FrameBuilder::of_records(&records, size).and_then(FrameBuilder::seal).expect("sized to fit")
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.index.len() - 1
    }

    /// True when the block has no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The frame this block is: exactly what is (to be) on the device.
    #[inline]
    pub fn frame(&self) -> &Bytes {
        &self.frame
    }

    /// Key of record `i` (panics when out of range).
    #[inline]
    pub fn key(&self, i: usize) -> Key {
        self.index[..self.len()][i].key
    }

    /// Record `i`, its payload a view into the frame.
    pub fn record(&self, i: usize) -> Record {
        let (slot, end) = (self.index[i], self.index[i + 1].at as usize);
        let op = if slot.tombstone { OpKind::Delete } else { OpKind::Put };
        let payload = self.frame.slice(slot.at as usize + RECORD_HEADER_LEN..end);
        Record { key: slot.key, op, payload }
    }

    /// `(key, is it a tombstone)` of every record from `from` on.
    pub fn heads(&self, from: usize) -> impl ExactSizeIterator<Item = (Key, bool)> + '_ {
        self.index[from..self.len()].iter().map(|slot| (slot.key, slot.tombstone))
    }

    /// Every key, in order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = Key> + '_ {
        self.heads(0).map(|(key, _)| key)
    }

    /// Every record, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Record> + '_ {
        (0..self.len()).map(|i| self.record(i))
    }

    /// Smallest key (panics on empty block).
    #[inline]
    pub fn min_key(&self) -> Key {
        self.key(0)
    }

    /// Largest key (panics on empty block).
    #[inline]
    pub fn max_key(&self) -> Key {
        self.key(self.len() - 1)
    }

    /// Number of tombstone records.
    pub fn tombstones(&self) -> u32 {
        self.heads(0).filter(|&(_, tombstone)| tombstone).count() as u32
    }

    /// Index of the first record whose key is at least `key`.
    pub fn lower_bound(&self, key: Key) -> usize {
        self.index[..self.len()].partition_point(|slot| slot.key < key)
    }

    /// Binary-search a key within the block; a hit slices its one payload.
    pub fn find(&self, key: Key) -> Option<Record> {
        let i = self.lower_bound(key);
        (i < self.len() && self.index[i].key == key).then(|| self.record(i))
    }

    /// The records in a fresh frame of `block_size` bytes.
    ///
    /// Layout (little-endian): `magic u32 | count u32 | checksum u64`, then
    /// per record `key u64 | op u8 | payload_len u32 | payload`, then zero
    /// padding up to `block_size`.
    pub fn encode(&self, block_size: usize) -> Result<Bytes> {
        let mut builder = FrameBuilder::new(block_size);
        builder.extend(self, 0..self.len())?;
        Ok(builder.seal()?.frame)
    }

    /// Check a frame and index its records.
    ///
    /// Zero-copy: the returned block *is* `frame` (one reference to its
    /// buffer) plus one index slot per record; no payload is touched.
    ///
    /// Any single-bit flip anywhere in the frame is rejected: the magic is
    /// compared exactly, a flip in the stored checksum no longer matches
    /// the computed one, and the record count (as the seed) and every byte
    /// after the header (as the data) enter the checksum, which by the
    /// argument in [`crate::checksum`] changes. The
    /// record walk then bounds every header and payload by the frame,
    /// refuses unknown op tags and keys out of strict order, and the bytes
    /// after the last record must be zero — checked unconditionally, not
    /// through the checksum.
    pub fn decode(frame: &Bytes) -> Result<DataBlock> {
        let data: &[u8] = frame;
        if data.len() < BLOCK_HEADER_LEN || data.len() > u32::MAX as usize {
            return Err(LsmError::Codec(format!("frame of {} bytes", data.len())));
        }
        let magic = le_u32(&data[0..4]);
        if magic != BLOCK_MAGIC {
            return Err(LsmError::Codec(format!("bad magic 0x{magic:08x}")));
        }
        let count = le_u32(&data[4..8]);
        if frame_checksum(count, data).to_le_bytes() != data[8..16] {
            return Err(LsmError::Codec("checksum mismatch".into()));
        }
        // The count comes from the frame: bound it by what the frame could
        // hold before sizing anything by it.
        let count = count as usize;
        if count > (data.len() - BLOCK_HEADER_LEN) / RECORD_HEADER_LEN {
            return Err(LsmError::Codec(format!("record count {count} exceeds frame")));
        }
        let mut index = Vec::with_capacity(count + 1);
        let mut off = BLOCK_HEADER_LEN;
        let mut prev: Option<Key> = None;
        for _ in 0..count {
            let Some(head) = data.get(off..off + RECORD_HEADER_LEN) else {
                return Err(LsmError::Codec("truncated record header".into()));
            };
            let key = key_at(head, 0);
            if prev.is_some_and(|p| p >= key) {
                return Err(LsmError::Codec("records not sorted/unique".into()));
            }
            prev = Some(key);
            if head[8] > OP_DELETE {
                return Err(LsmError::Codec(format!("bad op tag {}", head[8])));
            }
            let plen = le_u32(&head[9..13]) as usize;
            index.push(Slot { key, at: off as u32, tombstone: head[8] == OP_DELETE });
            off += RECORD_HEADER_LEN;
            if plen > data.len() - off {
                return Err(LsmError::Codec("truncated payload".into()));
            }
            off += plen;
        }
        index.push(Slot { key: 0, at: off as u32, tombstone: false });
        // Eight bytes at a time, every byte looked at: a short-circuiting
        // byte loop does not vectorise.
        let (words, tail) = data[off..].as_chunks::<8>();
        let set = words.iter().fold(0, |acc, w| acc | u64::from_ne_bytes(*w))
            | tail.iter().fold(0, |acc, &b| acc | u64::from(b));
        if set != 0 {
            return Err(LsmError::Codec("padding after the last record not zero".into()));
        }
        Ok(DataBlock { frame: frame.clone(), index })
    }
}

/// Builds a frame — the only way one is made. Records are appended as
/// bytes, one from memory or a run of an existing block's with one copy;
/// [`finish`](FrameBuilder::finish) pads, counts and checksums once.
#[derive(Debug)]
pub struct FrameBuilder {
    /// Header space, then the records so far; padded to size when sealed.
    buf: Vec<u8>,
    /// One slot per record so far.
    index: Vec<Slot>,
    block_size: usize,
}

impl FrameBuilder {
    /// An empty frame of `block_size` bytes.
    pub fn new(block_size: usize) -> Self {
        FrameBuilder::with_capacity(block_size, 0)
    }

    /// An empty frame of `block_size` bytes with an index sized for
    /// `records` records: the index outlives the builder in the block.
    pub fn with_capacity(block_size: usize, records: usize) -> Self {
        // A recycled frame when the thread has one, stale bytes and all:
        // everything past the header is appended or, in `seal`, zeroed.
        let mut buf = bytes::pool::take(block_size.max(BLOCK_HEADER_LEN));
        buf.clear();
        buf.resize(BLOCK_HEADER_LEN, 0);
        FrameBuilder { buf, index: Vec::with_capacity(records + 1), block_size }
    }

    /// A frame of `block_size` bytes holding `records` (sorted, unique).
    pub fn of_records(records: &[Record], block_size: usize) -> Result<Self> {
        let mut builder = FrameBuilder::with_capacity(block_size, records.len());
        records.iter().try_for_each(|r| builder.push(r))?;
        Ok(builder)
    }

    /// Records appended so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no record has been appended.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Refuse `more` record bytes that would not fit the frame.
    fn fits(&self, more: usize) -> Result<()> {
        if self.buf.len() + more <= self.block_size {
            return Ok(());
        }
        Err(LsmError::RecordTooLarge {
            record_bytes: self.buf.len() - BLOCK_HEADER_LEN + more,
            block_payload_bytes: self.block_size.saturating_sub(BLOCK_HEADER_LEN),
        })
    }

    /// Append one record; its key must exceed every key appended so far.
    pub fn push(&mut self, r: &Record) -> Result<()> {
        self.fits(r.encoded_len())?;
        let tombstone = r.is_tombstone();
        self.index.push(Slot { key: r.key, at: self.buf.len() as u32, tombstone });
        self.buf.extend_from_slice(&r.key.to_le_bytes());
        self.buf.push(if tombstone { OP_DELETE } else { 0 });
        self.buf.extend_from_slice(&(r.payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&r.payload);
        Ok(())
    }

    /// Append records `range` of `block` — their bytes move with one copy.
    /// The first key must exceed every key appended so far.
    pub fn extend(&mut self, block: &DataBlock, range: Range<usize>) -> Result<()> {
        let (from, to) = (block.index[range.start].at, block.index[range.end].at);
        self.splice(&block.frame[from as usize..to as usize], &block.index[range])
    }

    /// Append `bytes`: whole records, indexed by `slots` in the coordinates
    /// of wherever they come from (`slots[0]` starts at `bytes[0]`).
    fn splice(&mut self, bytes: &[u8], slots: &[Slot]) -> Result<()> {
        self.fits(bytes.len())?;
        if let Some(origin) = slots.first().map(|slot| slot.at) {
            let base = self.buf.len() as u32;
            self.index.extend(slots.iter().map(|s| Slot { at: s.at - origin + base, ..*s }));
            self.buf.extend_from_slice(bytes);
        }
        Ok(())
    }

    /// Put `block`'s records in front of the ones appended so far.
    pub fn prepend(&mut self, block: &DataBlock) -> Result<()> {
        let mut fused = FrameBuilder::new(self.block_size);
        fused.extend(block, 0..block.len())?;
        fused.splice(&self.buf[BLOCK_HEADER_LEN..], &self.index)?;
        *self = fused;
        Ok(())
    }

    /// Seal the frame into the block it is. A block with no records is
    /// refused: nothing may allocate an id or touch a device for one.
    pub fn finish(self) -> Result<DataBlock> {
        if self.is_empty() {
            return Err(LsmError::Invariant("refusing to build an empty data block".into()));
        }
        self.seal()
    }

    /// Pad to size, then write count and checksum — once.
    fn seal(mut self) -> Result<DataBlock> {
        self.fits(0)?; // a block size below the header's fits nothing
        let count = self.index.len() as u32;
        self.index.push(Slot { key: 0, at: self.buf.len() as u32, tombstone: false });
        self.buf.resize(self.block_size, 0);
        self.buf[0..4].copy_from_slice(&BLOCK_MAGIC.to_le_bytes());
        self.buf[4..8].copy_from_slice(&count.to_le_bytes());
        let sum = frame_checksum(count, &self.buf);
        self.buf[8..16].copy_from_slice(&sum.to_le_bytes());
        Ok(DataBlock { frame: Bytes::from(self.buf), index: self.index })
    }
}

/// The key of the record that starts at `at`.
#[inline]
fn key_at(data: &[u8], at: usize) -> Key {
    u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"))
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("4 bytes"))
}

/// The checksum stored in a frame's header: seeded with the record count,
/// over every byte after the header (records and padding).
fn frame_checksum(count: u32, frame: &[u8]) -> u64 {
    checksum::sum64(count.into(), &frame[BLOCK_HEADER_LEN..])
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
    /// Optional per-block Bloom filter over the keys. The level holding
    /// this handle packs a copy of its words into its search index, which
    /// is what a get probes; the filter travels here so that a preserved
    /// block takes it along to the level it moves to.
    pub bloom: Option<BloomFilter>,
}

impl BlockHandle {
    /// Fence entry describing `block` stored at `id`.
    pub fn describe(id: sim_ssd::BlockId, block: &DataBlock, bloom: Option<BloomFilter>) -> Self {
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

    fn sample_records() -> Vec<Record> {
        vec![Record::put(1, vec![0xA; 4]), Record::delete(5), Record::put(9, vec![0xB; 2])]
    }

    fn sample_block() -> DataBlock {
        DataBlock::new(sample_records())
    }

    fn records(block: &DataBlock) -> Vec<Record> {
        block.iter().collect()
    }

    /// Decode `bytes` as a frame of its own (tests mutate frames as vectors).
    fn decode_vec(bytes: Vec<u8>) -> Result<DataBlock> {
        DataBlock::decode(&Bytes::from(bytes))
    }

    /// A full paper-geometry block: 36 records of 113 B in a 4 KiB frame.
    fn full_records() -> Vec<Record> {
        (0..36u64).map(|k| Record::put(k * 3 + 1, vec![k as u8 ^ 0x5A; 100])).collect()
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
        assert_eq!(records(&d), sample_records());
        assert_eq!(records(&b), sample_records());
    }

    #[test]
    fn a_built_frame_is_byte_identical_to_new_then_encode() {
        for (records, bs) in [(sample_records(), 128), (full_records(), 4096)] {
            let built = FrameBuilder::of_records(&records, bs).unwrap().finish().unwrap();
            assert_eq!(built.frame(), &DataBlock::new(records.clone()).encode(bs).unwrap());
            // Run copies out of a decoded block give the same bytes again,
            // whichever way the records are cut into runs.
            let mut by_runs = FrameBuilder::new(bs);
            let cut = records.len() / 3;
            by_runs.extend(&built, 0..cut).unwrap();
            by_runs.push(&built.record(cut)).unwrap();
            by_runs.extend(&built, cut + 1..built.len()).unwrap();
            assert_eq!(by_runs.finish().unwrap().frame(), built.frame());
        }
    }

    #[test]
    fn prepend_puts_a_block_in_front() {
        let mut tail = FrameBuilder::of_records(&sample_records()[1..], 128).unwrap();
        tail.prepend(&DataBlock::new(sample_records()[..1].to_vec())).unwrap();
        assert_eq!(records(&tail.finish().unwrap()), sample_records());
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let b = sample_block();
        let mut frame = b.encode(128).unwrap().to_vec();
        frame[0] ^= 0xFF;
        assert!(decode_vec(frame).is_err());
    }

    #[test]
    fn a_frame_of_the_first_format_is_refused_by_its_magic() {
        // Format 1: "LSMB", the count, a 32-bit sum, a reserved zero word.
        // Whatever its sum was, the refusal must name the magic — before
        // the old sum and the zero word are read as one 64-bit sum.
        let mut old = sample_block().encode(128).unwrap().to_vec();
        old[0..4].copy_from_slice(&0x4C_53_4D_42u32.to_le_bytes());
        old[8..12].copy_from_slice(&0x5DBE_4E99u32.to_le_bytes());
        old[12..16].fill(0);
        match decode_vec(old) {
            Err(LsmError::Codec(msg)) => assert!(msg.contains("bad magic 0x4c534d42"), "{msg}"),
            other => panic!("a format-1 frame must be a codec error, got {other:?}"),
        }
    }

    #[test]
    fn a_frame_built_in_a_recycled_buffer_has_zero_padding_and_decodes() {
        // The buffer the builder gets is the one this thread dropped last,
        // with all of its 0xFF bytes still in it.
        let stale = Bytes::from({
            let mut buf = bytes::pool::take(4096);
            buf.clear();
            buf.resize(4096, 0xFF);
            buf
        });
        let at = stale.as_ptr() as usize;
        drop(stale);
        let built = FrameBuilder::of_records(&sample_records(), 4096).unwrap().finish().unwrap();
        assert_eq!(built.frame().as_ptr() as usize, at, "the builder did not take the buffer");
        let body_end = built.index[built.len()].at as usize;
        assert!(built.frame()[body_end..].iter().all(|&b| b == 0), "stale bytes in the padding");
        assert_eq!(built.frame(), &DataBlock::new(sample_records()).encode(4096).unwrap());
        assert_eq!(records(&DataBlock::decode(built.frame()).unwrap()), sample_records());
    }

    #[test]
    fn every_bit_flip_of_a_full_4k_frame_is_rejected() {
        let frame = DataBlock::new(full_records()).encode(4096).unwrap();
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
        assert_every_bit_flip_rejected(&DataBlock::new(vec![]).encode(64).unwrap());
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
        let body_end = block.index[block.len()].at as usize;
        for pos in [body_end, body_end + 1, 255] {
            let mut bad = frame.clone();
            bad[pos] = 0x80;
            let sum = frame_checksum(block.len() as u32, &bad);
            bad[8..16].copy_from_slice(&sum.to_le_bytes());
            match decode_vec(bad) {
                Err(LsmError::Codec(msg)) => assert!(msg.contains("padding"), "{msg}"),
                other => panic!("dirty padding at {pos} must be a codec error, got {other:?}"),
            }
        }
        // The old bypass value itself (the complement of the stored sum).
        frame[255] = 1;
        let stored = u64::from_le_bytes(frame[8..16].try_into().unwrap());
        frame[8..16].copy_from_slice(&(!stored).to_le_bytes());
        assert!(matches!(decode_vec(frame), Err(LsmError::Codec(_))));
    }

    #[test]
    fn a_nonzero_byte_at_any_offset_of_a_padding_of_0_to_17_bytes_is_rejected() {
        // The padding is checked in 8-byte words and a tail of up to 7
        // bytes: every offset on both sides of that cut, with the checksum
        // recomputed so that only the padding check can object.
        let block = sample_block();
        let body_end = block.index[block.len()].at as usize;
        for padding in 0..=17 {
            let frame = block.encode(body_end + padding).unwrap();
            assert_eq!(records(&DataBlock::decode(&frame).unwrap()), sample_records());
            for pos in body_end..frame.len() {
                for byte in [0x01, 0x80] {
                    let mut bad = frame.to_vec();
                    bad[pos] = byte;
                    let sum = frame_checksum(block.len() as u32, &bad);
                    bad[8..16].copy_from_slice(&sum.to_le_bytes());
                    match decode_vec(bad) {
                        Err(LsmError::Codec(msg)) => assert!(msg.contains("padding"), "{msg}"),
                        other => panic!("padding {padding}, byte {pos}: got {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn hostile_record_count_is_rejected_before_allocating() {
        // A header asking for 2^32 - 1 records, with a checksum that matches:
        // decode must refuse by the frame-size bound, not try to reserve
        // 4 Gi offsets.
        let mut frame = sample_block().encode(128).unwrap().to_vec();
        for count in [u32::MAX, 1 << 31, 9, 4] {
            frame[4..8].copy_from_slice(&count.to_le_bytes());
            let sum = frame_checksum(count, &frame);
            frame[8..16].copy_from_slice(&sum.to_le_bytes());
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
    fn a_decoded_block_and_what_is_read_out_of_it_view_one_frame() {
        let frame = DataBlock::new(full_records()).encode(4096).unwrap();
        let decoded = DataBlock::decode(&frame).unwrap();
        assert!(lies_within(decoded.frame(), &frame), "decode copied the frame");
        for r in decoded.iter().chain(decoded.find(4)) {
            assert!(lies_within(&r.payload, &frame), "payload was copied");
        }
        // Records moved into the next frame (what a merge does) leave the
        // old one behind: the new block views only its own buffer.
        let mut next = FrameBuilder::new(4096);
        next.extend(&decoded, 0..decoded.len()).unwrap();
        let next = next.finish().unwrap();
        assert_eq!(next.frame(), &frame);
        for r in next.iter() {
            assert!(lies_within(&r.payload, next.frame()));
            assert!(!lies_within(&r.payload, &frame), "built block still pins its input");
        }
    }

    #[test]
    fn encode_rejects_overflow() {
        let b = DataBlock::new(vec![Record::put(1, vec![0; 1000])]);
        assert!(matches!(b.encode(128), Err(LsmError::RecordTooLarge { .. })));
        assert!(matches!(b.encode(8), Err(LsmError::RecordTooLarge { .. })));
        assert!(matches!(FrameBuilder::new(8).finish(), Err(LsmError::Invariant(_))));
    }

    #[test]
    fn block_accessors() {
        let b = sample_block();
        assert_eq!((b.min_key(), b.max_key(), b.len()), (1, 9, 3));
        assert_eq!(b.tombstones(), 1);
        assert_eq!(b.keys().collect::<Vec<_>>(), vec![1, 5, 9]);
        assert!(b.find(5).unwrap().is_tombstone());
        assert_eq!(b.find(9), Some(Record::put(9, vec![0xB; 2])));
        assert!(b.find(2).is_none() && b.find(0).is_none() && b.find(10).is_none());
        assert_eq!(
            (b.lower_bound(0), b.lower_bound(5), b.lower_bound(6), b.lower_bound(10)),
            (0, 1, 2, 3)
        );
        assert!(!b.is_empty());
        assert!(DataBlock::new(vec![]).is_empty());
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
        let frame = DataBlock::new(vec![]).encode(64).unwrap();
        assert!(DataBlock::decode(&frame).unwrap().is_empty());
    }

    #[test]
    fn decode_rejects_unsorted_and_bad_op_tags() {
        // The builder trusts its caller with the order; the decoder does not.
        for keys in [[9, 1], [4, 4]] {
            let records = keys.map(|k| Record::put(k, vec![]));
            let frame = FrameBuilder::of_records(&records, 64).unwrap().finish().unwrap();
            assert!(DataBlock::decode(frame.frame()).is_err());
        }
        let mut frame = sample_block().encode(64).unwrap().to_vec();
        frame[BLOCK_HEADER_LEN + 8] = 2;
        let sum = frame_checksum(3, &frame);
        frame[8..16].copy_from_slice(&sum.to_le_bytes());
        match decode_vec(frame) {
            Err(LsmError::Codec(msg)) => assert!(msg.contains("op tag"), "{msg}"),
            other => panic!("op tag 2 must be a codec error, got {other:?}"),
        }
    }
}
