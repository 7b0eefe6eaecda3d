//! The machine's speed in the seconds a round ran.
//!
//! The sandbox is two virtual cores of a shared host whose speed steps
//! between two states about 27 % apart (a dependent multiply chain of fixed
//! length takes 18.7 ms or 23–24.5 ms, nothing in between) and drifts with
//! the neighbours' use of the caches, in stretches of 3–20 s and of minutes.
//! Every timing follows: ten runs of one binary spread 4–6 % in a quiet
//! quarter of an hour and 22–27 % in a noisy one, on every workload alike.
//! No statistic inside a run steps over a stretch that outlasts the run.
//!
//! So a run measures the machine next to the engine: three small kernels of
//! fixed work that share no code with the engine are timed before and after
//! every round, and a round's gated timings are reported **at the reference
//! speed** — a latency multiplied by the round's speed, a closed-loop rate
//! divided by it. Speed 1 is this sandbox's usual state; 0.8 means the
//! kernels took 1.25 times their reference time. The numbers as the clock
//! read them are reported per layer (`raw.*`, `machine.speed`).
//!
//! The kernels are the three things the engine's time goes to that a
//! neighbour can slow: the core's clock (a dependent arithmetic chain), the
//! core's own caches (a random pointer chase through 512 KiB) and the
//! allocator with an ordered map of 100-byte values. A chase through DRAM
//! was tried and left out: whether its 64 MiB landed on huge pages differed
//! from process to process by more than the machine's speed did.
//! `perf/README.md` (Noise) has the measured effect.

use std::collections::BTreeMap;
use std::time::Instant;

/// Steps of the arithmetic chain.
const CHAIN_STEPS: u64 = 10_000_000;
/// Entries of the pointer cycle: 512 KiB of `u32`, inside the core's L2.
const CYCLE_LEN: usize = 128 << 10;
const CYCLE_STEPS: usize = 2_000_000;
const MAP_INSERTS: usize = 20_000;
const MAP_LOOKUPS: usize = 5_000;

/// What the kernels take on this sandbox in its usual state (medians of
/// 1 300 samples over two hours): the speed is 1 there.
const REF_CHAIN_NS: f64 = 23.0e6;
const REF_CYCLE_NS: f64 = 11.3e6;
const REF_MAP_NS: f64 = 4.9e6;

pub struct Calibration {
    cycle: Vec<u32>,
    at: u32,
    key: u64,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Calibration {
    pub fn new() -> Self {
        // Sattolo's shuffle: one cycle through every entry.
        let mut cycle: Vec<u32> = (0..CYCLE_LEN as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..CYCLE_LEN).rev() {
            cycle.swap(i, (xorshift(&mut x) % i as u64) as usize);
        }
        Calibration { cycle, at: 0, key: 88_172_645_463_325_252 }
    }

    /// The machine's speed now: the geometric mean of the three kernels'
    /// reference time over the time they took.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 1u64;
        for i in 0..CHAIN_STEPS {
            x = (x ^ (x >> 29)).wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let chain = t.elapsed().as_nanos() as f64;

        let t = Instant::now();
        for _ in 0..CYCLE_STEPS {
            self.at = self.cycle[self.at as usize];
        }
        std::hint::black_box(self.at);
        let cycle = t.elapsed().as_nanos() as f64;

        let t = Instant::now();
        let mut map = BTreeMap::new();
        for _ in 0..MAP_INSERTS {
            let k = xorshift(&mut self.key);
            map.insert(k, [k as u8; 100]);
        }
        let found = map.keys().take(MAP_LOOKUPS).filter(|&&k| map.contains_key(&(k + 1))).count();
        std::hint::black_box(found);
        drop(map);
        let map_ns = t.elapsed().as_nanos() as f64;

        ((REF_CHAIN_NS / chain) * (REF_CYCLE_NS / cycle) * (REF_MAP_NS / map_ns)).cbrt()
    }
}

/// The speed of each round from the samples taken around them: `n + 1`
/// samples for `n` rounds, a round's speed the mean of its two neighbours.
pub fn between(samples: &[f64]) -> Vec<f64> {
    samples.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cycle_visits_every_entry() {
        let c = Calibration::new();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = c.cycle[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, CYCLE_LEN);
    }

    #[test]
    fn a_sample_is_a_plausible_speed() {
        let mut c = Calibration::new();
        let s = c.sample();
        // Debug builds run the kernels several times slower.
        assert!(s.is_finite() && s > 0.01 && s < 10.0, "speed {s}");
    }

    #[test]
    fn rounds_take_the_mean_of_the_samples_around_them() {
        assert_eq!(between(&[1.0, 0.5, 0.25]), vec![0.75, 0.375]);
        assert!(between(&[1.0]).is_empty());
    }
}
