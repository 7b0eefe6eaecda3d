//! # workloads — request generators and experiment drivers
//!
//! The three synthetic workloads of the paper's evaluation (§V):
//!
//! * [`Uniform`] — insert keys drawn uniformly at random from keys not
//!   currently indexed; delete keys uniformly from keys currently indexed.
//! * [`Normal`] — insert keys from a truncated normal distribution whose
//!   mean periodically jumps to a uniformly random location (parameters
//!   σ, ω); deletes as in `Uniform`.
//! * [`Tpc`] — loosely TPC-C: inserts pick a warehouse/district/customer at
//!   random and append a sequential order; deletes pick a warehouse and
//!   district at random and remove the 10 oldest orders.
//!
//! Plus the drivers used by every figure: grow an index to a target size
//! with inserts only, then run a 50/50 insert/delete mix and measure
//! steady-state amortized write costs per MB of requests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod keyset;
pub mod normal;
pub mod tpc;
pub mod uniform;
pub mod zipf;

pub use driver::{
    fill_to_bytes, reach_steady_state, run_requests, volume_requests, CostMeter, CostReading,
    Workload,
};
pub use keyset::KeySet;
pub use normal::Normal;
pub use tpc::Tpc;
pub use uniform::Uniform;
pub use zipf::Zipf;

use bytes::Bytes;
use lsm_tree::Key;

/// Deterministic payload for `key`, `len` bytes. Workloads derive payloads
/// from keys so integrity can be verified on lookup.
pub fn payload_for(key: Key, len: usize) -> Bytes {
    let mut out = Vec::with_capacity(len);
    let mut x = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for _ in 0..len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.push((x & 0xFF) as u8);
    }
    Bytes::from(out)
}

/// Ratio of inserts in a mixed workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsertRatio(pub f64);

impl InsertRatio {
    /// The steady-state 50/50 mix used throughout §V.
    pub const HALF: InsertRatio = InsertRatio(0.5);
    /// Insert-only (§V-D).
    pub const INSERT_ONLY: InsertRatio = InsertRatio(1.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_deterministic_and_sized() {
        let a = payload_for(42, 100);
        let b = payload_for(42, 100);
        let c = payload_for(43, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 100);
        assert_eq!(payload_for(1, 0).len(), 0);
    }
}
