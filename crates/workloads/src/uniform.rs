//! The Uniform workload (§V): insert keys uniform over keys not currently
//! indexed; delete keys uniform over keys currently indexed.

use lsm_tree::{Key, Request, RequestSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{payload_for, InsertRatio, KeySet};

/// Uniform insert/delete workload over the key domain `[0, domain)`.
///
/// The generator tracks the live key set, so inserts never collide with an
/// existing key and deletes always hit one — exactly the paper's setup.
#[derive(Debug, Clone)]
pub struct Uniform {
    rng: StdRng,
    live: KeySet,
    domain: Key,
    payload_len: usize,
    insert_ratio: f64,
}

impl Uniform {
    /// New generator. `domain` is the key-space size (paper: 10⁹),
    /// `payload_len` the payload bytes per record (paper: 100).
    pub fn new(seed: u64, domain: Key, payload_len: usize, ratio: InsertRatio) -> Self {
        assert!(domain > 0);
        Uniform {
            rng: StdRng::seed_from_u64(seed),
            live: KeySet::new(),
            domain,
            payload_len,
            insert_ratio: ratio.0,
        }
    }

    /// Number of currently live keys.
    pub fn live_keys(&self) -> usize {
        self.live.len()
    }

    /// Change the insert/delete mix (drivers switch from insert-only fill
    /// to the 50/50 steady state).
    pub fn set_ratio(&mut self, ratio: InsertRatio) {
        self.insert_ratio = ratio.0;
    }

    fn fresh_key(&mut self) -> Key {
        // Rejection sampling; the domain is far larger than the live set
        // in every experiment, so this terminates almost immediately.
        loop {
            let k = self.rng.gen_range(0..self.domain);
            if !self.live.contains(k) {
                return k;
            }
        }
    }
}

impl RequestSource for Uniform {
    fn next_request(&mut self) -> Request {
        let insert = self.live.is_empty() || self.rng.gen_bool(self.insert_ratio);
        if insert {
            let k = self.fresh_key();
            self.live.insert(k);
            Request::Put(k, payload_for(k, self.payload_len))
        } else {
            let k = self.live.sample_remove(&mut self.rng).expect("live set non-empty");
            Request::Delete(k)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_only_never_deletes_and_never_collides() {
        let mut g = Uniform::new(1, 1 << 30, 8, InsertRatio::INSERT_ONLY);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5_000 {
            match g.next_request() {
                Request::Put(k, p) => {
                    assert!(seen.insert(k), "key {k} inserted twice");
                    assert_eq!(p, payload_for(k, 8));
                }
                Request::Delete(_) => panic!("insert-only workload deleted"),
            }
        }
        assert_eq!(g.live_keys(), 5_000);
    }

    #[test]
    fn half_mix_keeps_live_set_stable() {
        let mut g = Uniform::new(2, 1 << 30, 8, InsertRatio::HALF);
        for _ in 0..20_000 {
            g.next_request();
        }
        // A 50/50 random walk stays near zero net growth.
        assert!(g.live_keys() < 2_000, "live = {}", g.live_keys());
    }

    #[test]
    fn deletes_only_hit_live_keys() {
        let mut g = Uniform::new(3, 1000, 4, InsertRatio::HALF);
        let mut model = std::collections::HashSet::new();
        for _ in 0..5_000 {
            match g.next_request() {
                Request::Put(k, _) => {
                    assert!(model.insert(k), "collision on {k}");
                }
                Request::Delete(k) => {
                    assert!(model.remove(&k), "deleted non-live {k}");
                }
            }
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = Uniform::new(9, 1 << 20, 4, InsertRatio::HALF);
        let mut b = Uniform::new(9, 1 << 20, 4, InsertRatio::HALF);
        for _ in 0..100 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }
}
