//! Load generator and oracle, owned by the benchmark.
//!
//! Everything a workload feeds the engine is derived from `--seed` here:
//! the index→key bijection, payload bytes, Zipf ranks and the live-index
//! window. Requests are taped (materialised) before a round's clock
//! starts, so generation cost never lands inside a timed section, and each
//! read carries the answer the oracle expects so it can be checked after
//! the clock stops.

use bytes::Bytes;

/// Keys live in `[0, 2^40)`: wide enough that inserts scatter uniformly,
/// narrow enough that a scan span for ~100 records is a plain `u64` range.
pub const KEY_BITS: u32 = 40;
/// Size of the key domain.
pub const KEY_DOMAIN: u64 = 1 << KEY_BITS;
/// Payload bytes per record (the paper's 100 B next to an 8 B key).
pub const PAYLOAD_LEN: usize = 100;

const HALF_BITS: u32 = KEY_BITS / 2;
const HALF_MASK: u64 = (1 << HALF_BITS) - 1;

/// SplitMix64: the one PRNG of the benchmark.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.state)
    }

    /// Uniform in `[0, n)` (multiply-shift, no modulo bias worth naming at
    /// the `n` used here).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Seeded bijection of `[0, 2^40)` onto itself: a 4-round Feistel network
/// over two 20-bit halves. `key(i)` is what index `i` is stored under;
/// `index(k)` inverts it, which lets a scan result be checked without a
/// key→index map.
#[derive(Debug, Clone)]
pub struct Perm {
    round_keys: [u64; 4],
}

impl Perm {
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5045_524d);
        Perm { round_keys: std::array::from_fn(|_| rng.next_u64()) }
    }

    #[inline]
    fn round(half: u64, key: u64) -> u64 {
        mix(half ^ key) & HALF_MASK
    }

    #[inline]
    pub fn key(&self, index: u64) -> u64 {
        debug_assert!(index < KEY_DOMAIN);
        let (mut l, mut r) = (index >> HALF_BITS, index & HALF_MASK);
        for k in self.round_keys {
            (l, r) = (r, l ^ Self::round(r, k));
        }
        (l << HALF_BITS) | r
    }

    #[inline]
    pub fn index(&self, key: u64) -> u64 {
        debug_assert!(key < KEY_DOMAIN);
        let (mut l, mut r) = (key >> HALF_BITS, key & HALF_MASK);
        for k in self.round_keys.iter().rev() {
            (l, r) = (r ^ Self::round(l, *k), l);
        }
        (l << HALF_BITS) | r
    }
}

/// The payload stored for `(key, version)`: a function of both, so any
/// read can be checked byte for byte against the version the oracle says
/// is current.
pub fn payload(key: u64, version: u32) -> Bytes {
    let mut rng = SplitMix64::new(key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(version));
    let mut buf = Vec::with_capacity(PAYLOAD_LEN + 8);
    while buf.len() < PAYLOAD_LEN {
        buf.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    buf.truncate(PAYLOAD_LEN);
    Bytes::from(buf)
}

/// Zipf(θ) over ranks `0..n` (rank 0 most popular), by the closed-form
/// inversion of Gray et al. (the YCSB generator): exact for the two head
/// ranks, a power-law fit for the rest.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zetan: f64 = (1..=n).map(|i| (i as f64).powf(-theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf { n, theta, zetan, alpha: 1.0 / (1.0 - theta), eta }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// The oracle: which indices are live and at which version. Live indices
/// are always one contiguous window `[lo, hi)` — inserts extend `hi`,
/// deletes of the oldest index advance `lo` (the paper's §V steady state)
/// — so membership is two comparisons and versions are a dense vector.
#[derive(Debug, Clone)]
pub struct Oracle {
    pub perm: Perm,
    lo: u64,
    hi: u64,
    /// `versions[i - base]` is the current version of live index `i`.
    versions: Vec<u32>,
    base: u64,
}

impl Oracle {
    pub fn new(seed: u64) -> Self {
        Oracle { perm: Perm::new(seed), lo: 0, hi: 0, versions: Vec::new(), base: 0 }
    }

    /// An oracle whose live window is `[lo, hi)`, every index at version 0
    /// (workloads that write disjoint index ranges from several threads
    /// install the window once the writes are acked).
    pub fn with_window(seed: u64, lo: u64, hi: u64) -> Self {
        Oracle { perm: Perm::new(seed), lo, hi, versions: vec![0; (hi - lo) as usize], base: lo }
    }

    pub fn live(&self) -> u64 {
        self.hi - self.lo
    }

    pub fn window(&self) -> (u64, u64) {
        (self.lo, self.hi)
    }

    /// Insert the next new index; returns its key and payload.
    pub fn insert_new(&mut self) -> (u64, Bytes) {
        let key = self.perm.key(self.hi);
        self.hi += 1;
        self.versions.push(0);
        (key, payload(key, 0))
    }

    /// Delete the oldest live index; returns its key.
    pub fn delete_oldest(&mut self) -> u64 {
        assert!(self.lo < self.hi, "delete from an empty window");
        let key = self.perm.key(self.lo);
        self.lo += 1;
        // Drop the dead prefix once it dominates, keeping `versions` O(live).
        let dead = (self.lo - self.base) as usize;
        if dead > self.versions.len() / 2 && dead > 1 << 16 {
            self.versions.drain(..dead);
            self.base = self.lo;
        }
        key
    }

    /// Overwrite live index `i` with its next version.
    pub fn update(&mut self, index: u64) -> (u64, Bytes) {
        assert!(self.lo <= index && index < self.hi);
        let v = &mut self.versions[(index - self.base) as usize];
        *v += 1;
        let key = self.perm.key(index);
        (key, payload(key, *v))
    }

    /// Current version of `index`, `None` when it is not live.
    pub fn version_of(&self, index: u64) -> Option<u32> {
        (self.lo <= index && index < self.hi).then(|| self.versions[(index - self.base) as usize])
    }

    /// What a get of `key` must return right now.
    pub fn expect(&self, key: u64) -> Option<u32> {
        self.version_of(self.perm.index(key))
    }

    /// Does `got` match what the oracle holds for `key` at `version`?
    pub fn matches(key: u64, version: Option<u32>, got: Option<&[u8]>) -> bool {
        match (version, got) {
            (None, None) => true,
            (Some(v), Some(bytes)) => payload(key, v)[..] == *bytes,
            _ => false,
        }
    }

    /// Every live key, ascending — the model range scans are checked
    /// against (a sorted vector answers the same range queries a
    /// `BTreeMap` would).
    pub fn sorted_live_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = (self.lo..self.hi).map(|i| self.perm.key(i)).collect();
        keys.sort_unstable();
        keys
    }
}

/// One taped point read and the version the oracle expects (`None`:
/// absent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetOp {
    pub key: u64,
    pub expect: Option<u32>,
}

/// A get mix over the oracle's current window: `absent_pct` percent of
/// reads address keys that are not live (half deleted indices when any
/// exist, half never inserted); the rest pick a live index by `pick`.
pub fn tape_gets(
    oracle: &Oracle,
    rng: &mut SplitMix64,
    n: usize,
    absent_pct: u64,
    mut pick: impl FnMut(&mut SplitMix64, u64) -> u64,
) -> Vec<GetOp> {
    let (lo, hi) = oracle.window();
    (0..n)
        .map(|_| {
            let index = if rng.below(100) < absent_pct {
                if lo > 0 && rng.below(2) == 0 {
                    rng.below(lo)
                } else {
                    hi + rng.below(1 << 30)
                }
            } else {
                lo + pick(rng, hi - lo)
            };
            GetOp { key: oracle.perm.key(index), expect: oracle.version_of(index) }
        })
        .collect()
}

/// Range scans `[lo, hi]` sized to return about `want` records each.
pub fn tape_scans(oracle: &Oracle, rng: &mut SplitMix64, n: usize, want: u64) -> Vec<(u64, u64)> {
    let span = (u128::from(want) * u128::from(KEY_DOMAIN) / u128::from(oracle.live().max(1)))
        .min(u128::from(KEY_DOMAIN / 2)) as u64;
    (0..n)
        .map(|_| {
            let lo = rng.below(KEY_DOMAIN - span);
            (lo, lo + span)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn perm_is_a_bijection_on_a_non_power_of_two_window() {
        let perm = Perm::new(7);
        let (start, len) = (1_000_003u64, 100_003u64);
        let mut seen = HashSet::new();
        for i in start..start + len {
            let k = perm.key(i);
            assert!(k < KEY_DOMAIN);
            assert!(seen.insert(k), "index {i} collides");
            assert_eq!(perm.index(k), i, "inverse round-trips");
        }
        // The domain edges map inside the domain and invert too.
        for i in [0, KEY_DOMAIN - 1] {
            assert_eq!(perm.index(perm.key(i)), i);
        }
    }

    #[test]
    fn perm_scatters_adjacent_indices() {
        let perm = Perm::new(1);
        let below_half = (0..10_000).filter(|&i| perm.key(i) < KEY_DOMAIN / 2).count();
        assert!((4_500..5_500).contains(&below_half), "{below_half} of 10000 in the low half");
    }

    fn sample_tape(seed: u64) -> Vec<GetOp> {
        let mut oracle = Oracle::new(seed);
        for _ in 0..1000 {
            oracle.insert_new();
        }
        for _ in 0..100 {
            oracle.delete_oldest();
        }
        let mut rng = SplitMix64::new(seed);
        tape_gets(&oracle, &mut rng, 500, 10, |r, n| r.below(n))
    }

    #[test]
    fn same_seed_same_tape_different_seed_different_tape() {
        assert_eq!(sample_tape(42), sample_tape(42));
        assert_ne!(sample_tape(42), sample_tape(43));
    }

    #[test]
    fn tape_expectations_follow_the_window() {
        let tape = sample_tape(5);
        let absent = tape.iter().filter(|g| g.expect.is_none()).count();
        assert!((20..90).contains(&absent), "about 10% of 500 absent, got {absent}");
    }

    #[test]
    fn zipf_head_mass_matches_the_exact_distribution() {
        let n = 1000;
        let z = Zipf::new(n, 0.99);
        let mut rng = SplitMix64::new(9);
        let draws = 400_000;
        let mut counts = vec![0u64; n as usize];
        for _ in 0..draws {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let zetan: f64 = (1..=n).map(|i| (i as f64).powf(-0.99)).sum();
        let head = counts[0] as f64 / draws as f64;
        assert!((head - 1.0 / zetan).abs() < 0.005, "rank 0: {head} vs {}", 1.0 / zetan);
        let top10_exact: f64 = (1..=10).map(|i| (i as f64).powf(-0.99)).sum::<f64>() / zetan;
        let top10 = counts[..10].iter().sum::<u64>() as f64 / draws as f64;
        assert!((top10 - top10_exact).abs() < 0.03, "top 10: {top10} vs {top10_exact}");
        assert!(counts[0] > counts[9] && counts[9] > counts[99], "mass decays with rank");
    }

    #[test]
    fn oracle_tracks_versions_and_window() {
        let mut o = Oracle::new(3);
        let (k0, p0) = o.insert_new();
        let (k1, _) = o.insert_new();
        assert_eq!(o.expect(k0), Some(0));
        assert!(Oracle::matches(k0, Some(0), Some(&p0)));
        let (_, p1) = o.update(1);
        assert_eq!(o.expect(k1), Some(1));
        assert!(Oracle::matches(k1, Some(1), Some(&p1)));
        assert!(!Oracle::matches(k1, Some(0), Some(&p1)), "stale version is a mismatch");
        assert_eq!(o.delete_oldest(), k0);
        assert_eq!(o.expect(k0), None);
        assert_eq!(o.live(), 1);
        assert_eq!(o.sorted_live_keys(), vec![k1]);
    }

    #[test]
    fn scans_are_sized_for_the_requested_record_count() {
        let mut o = Oracle::new(11);
        for _ in 0..50_000 {
            o.insert_new();
        }
        let keys = o.sorted_live_keys();
        let mut rng = SplitMix64::new(11);
        let scans = tape_scans(&o, &mut rng, 200, 100);
        let total: usize = scans
            .iter()
            .map(|&(lo, hi)| keys.partition_point(|&k| k <= hi) - keys.partition_point(|&k| k < lo))
            .sum();
        let mean = total as f64 / 200.0;
        assert!((85.0..115.0).contains(&mean), "mean records per scan {mean}");
    }
}
