//! Per-block Bloom filters.
//!
//! The paper treats Bloom filters as an orthogonal lookup optimization
//! (§II: "our technical report discusses how our techniques work with
//! concurrency control and Bloom filters"). We provide per-block filters
//! built when a block is written; they live in the in-memory fence entry
//! ([`crate::block::BlockHandle`]) and let point lookups skip reading
//! blocks that cannot contain the key. Filters never touch the device and
//! therefore never affect the write counts the paper measures.

use crate::record::Key;

/// A classic Bloom filter over `u64` keys using double hashing
/// (Kirsch–Mitzenmacher): `h_i(k) = h1(k) + i · h2(k)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: usize,
    num_hashes: u32,
}

/// 64-bit finalizer from SplitMix64 — good avalanche, cheap, dependency-free.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
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
        let num_hashes =
            ((bits_per_key as f64 * std::f64::consts::LN_2).round() as u32).clamp(1, 30);
        let mut f = BloomFilter { bits: vec![0u64; num_bits.div_ceil(64)], num_bits, num_hashes };
        for k in keys {
            f.insert(k);
        }
        f
    }

    fn insert(&mut self, key: Key) {
        let h1 = mix64(key);
        let h2 = mix64(key ^ 0xdead_beef_cafe_f00d) | 1;
        for i in 0..self.num_hashes {
            let bit =
                (h1.wrapping_add(u64::from(i).wrapping_mul(h2)) % self.num_bits as u64) as usize;
            self.bits[bit / 64] |= 1u64 << (bit % 64);
        }
    }

    /// May `key` be in the set? False negatives never occur.
    pub fn may_contain(&self, key: Key) -> bool {
        let h1 = mix64(key);
        let h2 = mix64(key ^ 0xdead_beef_cafe_f00d) | 1;
        for i in 0..self.num_hashes {
            let bit =
                (h1.wrapping_add(u64::from(i).wrapping_mul(h2)) % self.num_bits as u64) as usize;
            if self.bits[bit / 64] & (1u64 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// Size of the bit array in bits.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Number of hash probes per operation.
    pub fn num_hashes(&self) -> u32 {
        self.num_hashes
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
