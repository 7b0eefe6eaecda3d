//! Per-block Bloom filters.
//!
//! The paper treats Bloom filters as an orthogonal lookup optimization
//! (§II: "our technical report discusses how our techniques work with
//! concurrency control and Bloom filters"). We provide per-block filters
//! built when a block is written; they live in the in-memory fence entry
//! ([`crate::block::BlockHandle`]) and let point lookups skip reading
//! blocks that cannot contain the key. Filters never touch the device and
//! therefore never affect the write counts the paper measures.

use std::sync::Arc;

use crate::record::Key;

/// A classic Bloom filter over `u64` keys using double hashing
/// (Kirsch–Mitzenmacher) from one hash: `h_i(k) = h(k) + i · step(k)`, the
/// step being `h(k)` with its halves swapped, made odd.
///
/// One allocation, shared by every clone of the fence entry that carries
/// it: word 0 is the geometry (bit count and probes per key), the rest the
/// bit array. A level packs these same words, geometry first, into its
/// search index ([`crate::level::Level`]), so [`probe`] answers for both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    words: Arc<[u64]>,
}

/// 64-bit finalizer from SplitMix64 — good avalanche, cheap, dependency-free.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The probes per key sit in the geometry word's top byte, above the bit
/// count.
const HASHES_SHIFT: u32 = 56;

/// The bit count in a geometry word.
#[inline]
fn bit_count(geometry: u64) -> u64 {
    geometry & ((1 << HASHES_SHIFT) - 1)
}

/// The positions `key` sets or tests in a filter of this geometry. Each
/// 64-bit value is brought into `[0, num_bits)` by taking the high word of
/// its product with `num_bits` — a multiplication where `%` is a division.
#[inline]
fn bit_positions(geometry: u64, key: Key) -> impl Iterator<Item = usize> {
    let num_bits = u128::from(bit_count(geometry));
    let h = mix64(key);
    let step = h.rotate_left(32) | 1;
    (0..geometry >> HASHES_SHIFT).map(move |i| {
        let x = h.wrapping_add(i.wrapping_mul(step));
        ((u128::from(x) * num_bits) >> 64) as usize
    })
}

/// Words a filter of this geometry takes, the geometry word included.
#[inline]
pub(crate) fn len_in_words(geometry: u64) -> usize {
    1 + bit_count(geometry).div_ceil(64) as usize
}

/// May `key` be in the set whose filter is `words` (geometry word first)?
/// False negatives never occur.
#[inline]
pub(crate) fn probe(words: &[u64], key: Key) -> bool {
    let bits = &words[1..];
    bit_positions(words[0], key).all(|bit| bits[bit / 64] & (1u64 << (bit % 64)) != 0)
}

impl BloomFilter {
    /// Build a filter for `keys` at roughly `bits_per_key` bits per key.
    /// The number of hash functions is the standard optimum
    /// `k ≈ bits_per_key · ln 2`, clamped to `[1, 30]`.
    pub fn build(keys: &[Key], bits_per_key: usize) -> Self {
        Self::from_keys(keys.iter().copied(), bits_per_key)
    }

    /// [`build`](BloomFilter::build) over keys read straight out of
    /// whatever holds them (a block's records), with no key vector between.
    pub fn from_keys(keys: impl ExactSizeIterator<Item = Key>, bits_per_key: usize) -> Self {
        let bits_per_key = bits_per_key.max(1);
        let num_bits = (keys.len().max(1) * bits_per_key).max(64);
        assert!((num_bits as u64) < 1 << HASHES_SHIFT, "filter of {num_bits} bits");
        let num_hashes =
            ((bits_per_key as f64 * std::f64::consts::LN_2).round() as u64).clamp(1, 30);
        let geometry = num_hashes << HASHES_SHIFT | num_bits as u64;
        // Collected from an iterator of known length: allocated once, in place.
        let mut words: Arc<[u64]> = std::iter::repeat_n(0, 1 + num_bits.div_ceil(64)).collect();
        let filter = Arc::get_mut(&mut words).expect("not shared yet");
        filter[0] = geometry;
        for key in keys {
            for bit in bit_positions(geometry, key) {
                filter[1 + bit / 64] |= 1u64 << (bit % 64);
            }
        }
        BloomFilter { words }
    }

    /// May `key` be in the set? False negatives never occur.
    pub fn may_contain(&self, key: Key) -> bool {
        probe(&self.words, key)
    }

    /// The filter as a level's index stores it: geometry word, then bits.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Size of the bit array in bits.
    pub fn num_bits(&self) -> usize {
        bit_count(self.words[0]) as usize
    }

    /// Number of hash probes per operation.
    pub fn num_hashes(&self) -> u32 {
        (self.words[0] >> HASHES_SHIFT) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let keys: Vec<Key> = (0..500).map(|i| i * 977 + 13).collect();
        let f = BloomFilter::build(&keys, 10);
        for &k in &keys {
            assert!(f.may_contain(k), "false negative for {k}");
        }
    }

    #[test]
    fn false_positive_rate_is_reasonable() {
        let keys: Vec<Key> = (0..1000).map(|i| i * 2).collect();
        let f = BloomFilter::build(&keys, 10);
        let mut fp = 0;
        let probes = 10_000u64;
        for i in 0..probes {
            let k = 1_000_000 + i; // definitely absent
            if f.may_contain(k) {
                fp += 1;
            }
        }
        // 10 bits/key gives ~1% theoretical FPR; allow generous slack.
        assert!(fp < probes / 20, "false positive rate too high: {fp}/{probes}");
    }

    /// SplitMix64 as a stream.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            mix64(x)
        }
    }

    #[test]
    fn no_false_negative_over_ten_thousand_block_sized_sets() {
        let mut next = stream(1);
        for _ in 0..10_000 {
            let keys: Vec<Key> = (0..36).map(|_| next()).collect();
            let f = BloomFilter::build(&keys, 10);
            assert!(keys.iter().all(|&k| f.may_contain(k)), "false negative among {keys:?}");
        }
    }

    #[test]
    fn positions_stay_in_range_for_any_bit_count() {
        let mut next = stream(2);
        for num_bits in [64u64, 360, 361, (1 << 40) + 1] {
            for _ in 0..10_000 {
                let key = next();
                for bit in bit_positions(30 << HASHES_SHIFT | num_bits, key) {
                    assert!((bit as u64) < num_bits, "{bit} of {num_bits} bits, key {key}");
                }
            }
        }
        // The extremes of the hash land on the first and the last bit.
        assert_eq!(((u128::from(u64::MAX) * 360) >> 64) as usize, 359);
    }

    #[test]
    fn false_positive_rate_at_block_geometry_matches_the_modulo_positions() {
        // The filter a 36-record block gets (360 bits, 7 probes), against
        // the positions this filter took before: two hashes, reduced by `%`.
        let modulo_positions = |num_bits: u64, key: Key| {
            let h1 = mix64(key);
            let h2 = mix64(key ^ 0xdead_beef_cafe_f00d) | 1;
            (0..7u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % num_bits) as usize)
        };
        let mut next = stream(3);
        let (filters, probes) = (2_000, 500);
        let (mut fp, mut fp_modulo) = (0u32, 0u32);
        for _ in 0..filters {
            let keys: Vec<Key> = (0..36).map(|_| next()).collect();
            let f = BloomFilter::build(&keys, 10);
            assert_eq!((f.num_bits(), f.num_hashes()), (360, 7));
            let mut reference = [0u64; 6];
            for &k in &keys {
                modulo_positions(360, k).for_each(|bit| reference[bit / 64] |= 1 << (bit % 64));
            }
            for _ in 0..probes {
                let absent = next(); // one of 2^64: not among the 36
                fp += u32::from(f.may_contain(absent));
                fp_modulo += u32::from(
                    modulo_positions(360, absent)
                        .all(|bit| reference[bit / 64] >> (bit % 64) & 1 == 1),
                );
            }
        }
        let total = f64::from(filters * probes);
        let (rate, rate_modulo) = (f64::from(fp) / total, f64::from(fp_modulo) / total);
        assert!(rate <= 0.011, "false-positive rate {rate}");
        assert!(
            (rate - rate_modulo).abs() <= 0.15 * rate_modulo,
            "false-positive rate {rate}, with `%` positions {rate_modulo}"
        );
    }

    #[test]
    fn empty_filter_rejects_everything_possible() {
        let f = BloomFilter::build(&[], 8);
        // No keys inserted: every probe should be negative.
        for k in 0..100 {
            assert!(!f.may_contain(k));
        }
    }

    #[test]
    fn tiny_bits_per_key_still_works() {
        let keys = [1u64, 2, 3];
        let f = BloomFilter::build(&keys, 1);
        assert!(f.num_hashes() >= 1);
        for &k in &keys {
            assert!(f.may_contain(k));
        }
    }

    #[test]
    fn geometry_accessors() {
        let f = BloomFilter::build(&[1, 2, 3, 4], 16);
        assert!(f.num_bits() >= 64);
        assert!(f.num_hashes() >= 8);
    }
}
