//! The engine's one checksum: block frames, WAL records and the manifest
//! all use this kernel, and all store its 64 bits.
//!
//! The input is read as little-endian 64-bit words (the last partial
//! stripe zero-extended); word `j` is absorbed by lane `j mod 8`. Eight
//! lanes with no data dependency between them keep the multiplier busy
//! every cycle — one 64-bit multiply a cycle is eight bytes a cycle, where
//! the 32-bit lanes this kernel had before were bound at four — which a
//! single serial xor→multiply chain over bytes cannot. At the end the seed,
//! the input length and the eight lane states are folded into one word and
//! avalanched.
//!
//! # Every single-bit flip is caught, by construction
//!
//! Fix the seed and the input length and let two inputs differ inside one
//! aligned 8-byte word only (a single-bit flip is the smallest such case).
//!
//! * The **lane step** `s' = rotl((s ^ w) · Q, 31)` is, for a fixed word
//!   `w`, a bijection of the state `s` (xor with a constant, multiplication
//!   by an odd constant modulo 2⁶⁴, and a rotation are each invertible), and
//!   for a fixed state an injection of `w` for the same reason. So the lane
//!   that absorbs the differing word holds a different state right after
//!   that step and after every later step (which sees equal words); the
//!   other seven lanes are untouched.
//! * The **fold step** `h' = (rotl(h, 27) ^ l) · Q` is a bijection of `h`
//!   for a fixed lane value `l` and of `l` for a fixed `h`. Folding visits
//!   the lanes in order: `h` is equal until the differing lane is folded
//!   in, differs right after, and stays different through the remaining
//!   (equal) lanes. The seed enters as the initial `h` and the length as
//!   the first value folded in, so the same holds for a flip in either.
//! * The **avalanche** (xor-shifts and odd multiplications) is a bijection
//!   of 64-bit words.
//!
//! Hence the two sums differ — as 64-bit values, which is why every stored
//! sum is 64 bits wide: each step above maps 64 bits onto 64 bits, and
//! cutting the result to 32 would map two different final states onto one
//! stored value. (The 32-bit lanes could be stored in 32 bits for the same
//! reason; widening the lanes meant widening the fields.) Bytes a caller
//! keeps outside the summed range (the stored sum, a magic number) are that
//! caller's to compare.

const LANES: usize = 8;
const STRIPE: usize = 8 * LANES;

/// Odd multipliers (the xxHash64 primes).
const Q1: u64 = 0x9E37_79B1_85EB_CA87;
const Q2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const Q3: u64 = 0x1656_67B1_9E37_79F9;

#[inline(always)]
fn absorb(lanes: &mut [u64; LANES], stripe: &[u8; STRIPE]) {
    let (words, _) = stripe.as_chunks::<8>();
    for (lane, word) in lanes.iter_mut().zip(words) {
        *lane = (*lane ^ u64::from_le_bytes(*word)).wrapping_mul(Q1).rotate_left(31);
    }
}

#[inline(always)]
fn fold(h: u64, lane: u64) -> u64 {
    (h.rotate_left(27) ^ lane).wrapping_mul(Q1)
}

/// 64-bit checksum of `data`. `seed` binds a value stored outside `data`
/// (a block's record count) into the sum; pass 0 when there is none.
pub fn sum64(seed: u64, data: &[u8]) -> u64 {
    let mut lanes: [u64; LANES] = std::array::from_fn(|i| Q2.wrapping_mul(i as u64 + 1));
    let (stripes, rest) = data.as_chunks::<STRIPE>();
    for stripe in stripes {
        absorb(&mut lanes, stripe);
    }
    if !rest.is_empty() {
        let mut last = [0u8; STRIPE];
        last[..rest.len()].copy_from_slice(rest);
        absorb(&mut lanes, &last);
    }
    // The length disambiguates the zero-extended tail ("ab" vs "ab\0").
    let mut h = lanes.into_iter().fold(fold(seed, data.len() as u64), fold);
    h ^= h >> 33;
    h = h.wrapping_mul(Q2);
    h ^= h >> 29;
    h = h.wrapping_mul(Q3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize) -> Vec<u8> {
        (0..len as u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8).collect()
    }

    /// The definition in the module docs, written the slow way: words put
    /// together a byte at a time, one lane looked up per word, no stripes,
    /// no chunking, and the arithmetic done in 128 bits and cut to 64 —
    /// nothing shared with the kernel but the constants.
    fn naive(seed: u64, data: &[u8]) -> u64 {
        const WORD: u128 = 1 << 64;
        let mul = |a: u64, b: u64| (u128::from(a) * u128::from(b) % WORD) as u64;
        let rotl = |x: u64, r: u32| {
            let wide = u128::from(x) << r;
            (wide % WORD + wide / WORD) as u64
        };
        let mut lanes = [0u64; 8];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = mul(0xC2B2_AE3D_27D4_EB4F, i as u64 + 1);
        }
        // Zero-extend to a whole number of 64-byte stripes.
        let mut padded = data.to_vec();
        padded.resize(data.len().div_ceil(64) * 64, 0);
        for j in 0..padded.len() / 8 {
            let mut w = 0u64;
            for b in 0..8 {
                w |= u64::from(padded[8 * j + b]) << (8 * b);
            }
            lanes[j % 8] = rotl(mul(lanes[j % 8] ^ w, 0x9E37_79B1_85EB_CA87), 31);
        }
        let mut h = seed;
        for value in std::iter::once(data.len() as u64).chain(lanes) {
            h = mul(rotl(h, 27) ^ value, 0x9E37_79B1_85EB_CA87);
        }
        h ^= h >> 33;
        h = mul(h, 0xC2B2_AE3D_27D4_EB4F);
        h ^= h >> 29;
        h = mul(h, 0x1656_67B1_9E37_79F9);
        h ^ (h >> 32)
    }

    #[test]
    fn every_single_bit_flip_changes_the_sum_at_every_tail_length() {
        // Lengths cover: empty, sub-word, word-aligned, sub-stripe, exact
        // stripes, and tails inside and across an 8-byte word and a 64-byte
        // stripe.
        for len in (0..=130).chain(255..=257) {
            let data = sample(len);
            let sum = sum64(7, &data);
            for bit in 0..len * 8 {
                let mut bad = data.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(sum64(7, &bad), sum, "len {len} bit {bit}");
            }
            for bit in 0..64 {
                assert_ne!(sum64(7 ^ 1 << bit, &data), sum, "len {len} seed bit {bit}");
            }
            // A flipped length bit: the same bytes cut (or zero-extended,
            // which the lanes cannot tell from the original) to that length.
            for bit in 0..9 {
                let other = len ^ 1 << bit;
                let mut bad = data.clone();
                bad.resize(other, 0);
                assert_ne!(sum64(7, &bad), sum, "len {len} length bit {bit}");
            }
        }
    }

    #[test]
    fn zero_extension_of_the_tail_does_not_collide() {
        assert_ne!(sum64(0, b"ab"), sum64(0, b"ab\0"));
        assert_ne!(sum64(0, b""), sum64(0, b"\0"));
        assert_ne!(sum64(0, &[0u8; 64]), sum64(0, &[0u8; 128]));
        assert_ne!(sum64(0, &[0u8; 8]), sum64(0, &[0u8; 64]));
    }

    #[test]
    fn sums_are_stable() {
        // The value is an on-disk format: changing the kernel is a format
        // revision, and this test is where that shows. The literals come
        // from a third implementation (a few lines of Python integers);
        // `naive` above is the second, and checks every length besides.
        assert_eq!(sum64(0, b""), EMPTY);
        assert_eq!(sum64(36, &sample(4080)), FRAME_BODY);
        assert_eq!(sum64(0, &sample(1000)), MANIFEST_BODY);
        assert_eq!(sum64(u64::MAX, b"log-structured merge"), SEEDED);
        for len in (0..=200).chain([1000, 4080, 4096]) {
            for seed in [0, 36, u64::MAX] {
                let data = sample(len);
                assert_eq!(sum64(seed, &data), naive(seed, &data), "len {len} seed {seed}");
            }
        }
    }

    const EMPTY: u64 = 0xACFD_C9D8_5BCD_25C7;
    const FRAME_BODY: u64 = 0x4638_F259_51F8_A672;
    const MANIFEST_BODY: u64 = 0x3737_5EC6_B3BE_7557;
    const SEEDED: u64 = 0xDA6A_0BA7_919A_6927;
}
