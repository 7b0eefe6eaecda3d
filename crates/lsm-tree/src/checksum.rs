//! The engine's one checksum: block frames, WAL records and the manifest
//! all use this kernel.
//!
//! The input is read as little-endian 32-bit words (the last partial word
//! zero-extended); word `j` is absorbed by lane `j mod 8`. Eight lanes with
//! no data dependency between them keep the multiplier busy every cycle,
//! which a single serial xor→multiply chain over bytes cannot. At the end
//! the input length and the eight lane states are folded into one word and
//! avalanched.
//!
//! # Every single-bit flip is caught, by construction
//!
//! Fix the seed and the input length and let two inputs differ inside one
//! aligned 4-byte word only (a single-bit flip is the smallest such case).
//!
//! * The **lane step** `s' = rotl((s ^ w) · P, 13)` is, for a fixed word
//!   `w`, a bijection of the state `s` (xor with a constant, multiplication
//!   by an odd constant modulo 2³², and a rotation are each invertible), and
//!   for a fixed state an injection of `w` for the same reason. So the lane
//!   that absorbs the differing word holds a different state right after
//!   that step and after every later step (which sees equal words); the
//!   other seven lanes are untouched.
//! * The **fold step** `h' = (rotl(h, 7) ^ l) · P` is a bijection of `h`
//!   for a fixed lane value `l` and of `l` for a fixed `h`. Folding visits
//!   the lanes in order: `h` is equal until the differing lane is folded
//!   in, differs right after, and stays different through the remaining
//!   (equal) lanes. The seed enters as the initial `h`, so the same holds
//!   for a flip in the seed.
//! * The **avalanche** (xor-shifts and odd multiplications) is a bijection.
//!
//! Hence the two sums differ. Bytes a caller keeps outside the summed range
//! (a stored checksum field, a magic number) are that caller's to compare.

const LANES: usize = 8;
const STRIPE: usize = 4 * LANES;

/// Odd multipliers (the xxHash32 primes).
const P1: u32 = 0x9E37_79B1;
const P2: u32 = 0x85EB_CA77;
const P3: u32 = 0xC2B2_AE3D;

#[inline(always)]
fn absorb(lanes: &mut [u32; LANES], stripe: &[u8; STRIPE]) {
    for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(4)) {
        let w = u32::from_le_bytes(word.try_into().expect("chunks_exact(4)"));
        *lane = (*lane ^ w).wrapping_mul(P1).rotate_left(13);
    }
}

fn lanes_of(data: &[u8]) -> [u32; LANES] {
    let mut lanes: [u32; LANES] = std::array::from_fn(|i| P2.wrapping_mul(i as u32 + 1));
    let mut stripes = data.chunks_exact(STRIPE);
    for stripe in &mut stripes {
        absorb(&mut lanes, stripe.try_into().expect("chunks_exact(STRIPE)"));
    }
    let rest = stripes.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; STRIPE];
        last[..rest.len()].copy_from_slice(rest);
        absorb(&mut lanes, &last);
    }
    lanes
}

#[inline(always)]
fn fold(h: u32, lane: u32) -> u32 {
    (h.rotate_left(7) ^ lane).wrapping_mul(P1)
}

fn finish(seed: u32, len: usize, lanes: impl IntoIterator<Item = u32>) -> u32 {
    // The length disambiguates the zero-extended tail ("ab" vs "ab\0").
    let len = len as u64;
    let mut h = fold(fold(seed, len as u32), (len >> 32) as u32);
    for lane in lanes {
        h = fold(h, lane);
    }
    h ^= h >> 15;
    h = h.wrapping_mul(P2);
    h ^= h >> 13;
    h = h.wrapping_mul(P3);
    h ^ (h >> 16)
}

/// 32-bit checksum of `data`. `seed` binds a value stored outside `data`
/// (a block's record count) into the sum; pass 0 when there is none.
pub fn sum32(seed: u32, data: &[u8]) -> u32 {
    finish(seed, data.len(), lanes_of(data))
}

/// 64-bit checksum of `data`: two folds of the same eight lanes, in opposite
/// orders and from different seeds. Each half alone is a [`sum32`]-grade sum
/// of the whole input, so the single-word argument above holds for both.
pub fn sum64(data: &[u8]) -> u64 {
    let lanes = lanes_of(data);
    let lo = finish(0, data.len(), lanes);
    let hi = finish(P3, data.len(), lanes.into_iter().rev());
    u64::from(hi) << 32 | u64::from(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize) -> Vec<u8> {
        (0..len as u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8).collect()
    }

    #[test]
    fn every_single_bit_flip_changes_both_sums_at_every_tail_length() {
        // Lengths cover: empty, sub-word, word-aligned, sub-stripe, exact
        // stripes, and stripes plus every kind of tail.
        for len in (0..=70).chain([127, 128, 129, 255, 256, 257]) {
            let data = sample(len);
            let (s32, s64) = (sum32(7, &data), sum64(&data));
            for bit in 0..len * 8 {
                let mut bad = data.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(sum32(7, &bad), s32, "len {len} bit {bit}");
                let b64 = sum64(&bad);
                assert_ne!(b64 as u32, s64 as u32, "len {len} bit {bit} (low half)");
                assert_ne!(b64 >> 32, s64 >> 32, "len {len} bit {bit} (high half)");
            }
        }
    }

    #[test]
    fn seed_and_length_are_part_of_the_sum() {
        let data = sample(100);
        let base = sum32(0, &data);
        for bit in 0..32 {
            assert_ne!(sum32(1 << bit, &data), base, "seed bit {bit}");
        }
        // Zero-extension of the tail must not make these collide.
        assert_ne!(sum32(0, b"ab"), sum32(0, b"ab\0"));
        assert_ne!(sum32(0, b""), sum32(0, b"\0"));
        assert_ne!(sum32(0, &[0u8; 32]), sum32(0, &[0u8; 64]));
        assert_ne!(sum64(b"ab"), sum64(b"ab\0"));
    }

    #[test]
    fn sums_are_stable() {
        // The value is an on-disk format: changing the kernel is a format
        // revision, and this test is where that shows. Expected values come
        // from an independent implementation of the definition above.
        assert_eq!(sum32(0, b""), 0x7B79_3B4D);
        assert_eq!(sum32(36, &sample(4080)), 0x5DBE_4E99);
        assert_eq!(sum64(&sample(1000)), 0x4CF0_F242_7CE4_7957);
    }
}
