//! Index configuration and geometry.
//!
//! Defaults follow the paper's experimental setup (§V): 4 KiB blocks,
//! 4-byte keys + 100-byte payloads, order Γ = 10, top-level capacity K₀,
//! maximum waste factor ε = 0.2, merge rate δ = 0.07.

use crate::block::BLOCK_HEADER_LEN;
use crate::error::{LsmError, Result};

/// Static configuration of an LSM index.
#[derive(Debug, Clone, PartialEq)]
pub struct LsmConfig {
    /// Device block (frame) size in bytes. Paper: 4096.
    pub block_size: usize,
    /// Fixed payload size in bytes used for capacity math. Paper default:
    /// 100-byte payloads next to 4-byte keys. Records with other payload
    /// sizes are accepted as long as they fit a block, but `B` (records
    /// per block) is computed from this value.
    pub payload_size: usize,
    /// Capacity of the memory-resident top level L0, in blocks. Paper:
    /// 250 blocks (1 MB) for the small experiments, 4000 (16 MB) for §V.
    pub k0_blocks: usize,
    /// Γ — the order of the LSM-tree; level capacities grow by this
    /// factor: `K_i = K0 · Γ^i`. Paper default 10.
    pub gamma: usize,
    /// ε — maximum waste factor per level (fraction of empty record slots).
    /// Paper default 0.2.
    pub waste_eps: f64,
    /// δ — merge rate: fraction of a level selected by each partial merge.
    /// Paper defaults: 0.07 (0.05 for the largest runs).
    pub merge_rate: f64,
    /// The buffer cache's budget, stated in blocks: `cache_blocks ×
    /// block_size` bytes. Charged to it are a cached block's frame
    /// (`block_size`; not its index of 16 B a record) and, for a record a
    /// get kept instead of its block, the payload plus
    /// [`RECORD_ENTRY_OVERHEAD`](crate::store::RECORD_ENTRY_OVERHEAD) —
    /// so a cache the data does not fit in holds more than `cache_blocks`
    /// entries, most of them records. Fence metadata (the "internal B+tree
    /// nodes") is always memory-resident and is *not* charged against this
    /// budget, matching the paper's pinning setup.
    pub cache_blocks: usize,
    /// Bloom-filter bits per key for per-block filters; 0 disables blooms.
    pub bloom_bits_per_key: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            block_size: 4096,
            payload_size: 100,
            k0_blocks: 250,
            gamma: 10,
            waste_eps: 0.2,
            merge_rate: 0.07,
            cache_blocks: 256,
            bloom_bits_per_key: 0,
        }
    }
}

impl LsmConfig {
    /// Validate the configuration, returning it for chaining.
    pub fn validated(self) -> Result<Self> {
        if self.block_size <= BLOCK_HEADER_LEN {
            return Err(LsmError::Config(format!(
                "block_size {} must exceed the {}-byte header",
                self.block_size, BLOCK_HEADER_LEN
            )));
        }
        if self.block_capacity() == 0 {
            return Err(LsmError::Config(format!(
                "a {}-byte payload does not fit a {}-byte block",
                self.payload_size, self.block_size
            )));
        }
        if self.gamma < 2 {
            return Err(LsmError::Config("gamma must be at least 2".into()));
        }
        if self.k0_blocks == 0 {
            return Err(LsmError::Config("k0_blocks must be positive".into()));
        }
        if !(self.merge_rate > 0.0 && self.merge_rate <= 1.0) {
            return Err(LsmError::Config("merge_rate must be in (0, 1]".into()));
        }
        if !(self.waste_eps > 0.0 && self.waste_eps <= 0.5) {
            // The paper requires ε ≤ 0.5 (§II-B).
            return Err(LsmError::Config("waste_eps must be in (0, 0.5]".into()));
        }
        if self.cache_blocks == 0 {
            return Err(LsmError::Config("cache_blocks must be positive".into()));
        }
        // A manifest carries the geometry: every size computed from it must
        // be a number, not an overflow.
        if [self.k0_blocks, self.cache_blocks]
            .iter()
            .any(|n| n.checked_mul(self.block_size).is_none())
        {
            return Err(LsmError::Config("k0_blocks or cache_blocks overflows in bytes".into()));
        }
        Ok(self)
    }

    /// Serialized size of one record with the configured payload.
    #[inline]
    pub fn record_size(&self) -> usize {
        (8 + 1 + 4usize).saturating_add(self.payload_size)
    }

    /// `B` — the number of records per block (§II-A).
    #[inline]
    pub fn block_capacity(&self) -> usize {
        (self.block_size - BLOCK_HEADER_LEN) / self.record_size()
    }

    /// Capacity of paper-level `i` (L0 = 0) in blocks: `K_i = K0 · Γ^i`.
    pub fn level_capacity_blocks(&self, paper_level: usize) -> usize {
        let mut cap = self.k0_blocks;
        for _ in 0..paper_level {
            cap = cap.saturating_mul(self.gamma);
        }
        cap
    }

    /// Capacity of L0 in records.
    #[inline]
    pub fn l0_capacity_records(&self) -> usize {
        self.k0_blocks * self.block_capacity()
    }

    /// Partial-merge window from paper-level `i`, in blocks:
    /// `max(1, ⌊δ·K_i⌋)`.
    pub fn merge_window_blocks(&self, paper_level: usize) -> usize {
        ((self.merge_rate * self.level_capacity_blocks(paper_level) as f64).floor() as usize).max(1)
    }
}

/// How flush and merge maintenance runs (see
/// [`TreeOptions::scheduler`](crate::TreeOptionsBuilder::scheduler)).
///
/// `Inline` is byte-identical to the historical write path: the request
/// that overflows L0 (or any deeper level) performs the whole merge
/// cascade before returning. Deterministic tests — the crash-torture
/// harness, the shard twin tests — rely on that and run in this mode.
///
/// `Background` moves the same work onto a worker pool owned by the
/// concurrent front-end ([`crate::ShardedLsmTree`]): `put` seals the
/// overflowing memtable, hands it to the
/// [`crate::scheduler::MergeScheduler`], and returns.
/// A bare [`crate::LsmTree`] has no threads of its own, so it treats
/// `Background` as "buffer and let the owner drive maintenance" only when
/// wrapped; used directly it behaves like `Inline`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Merges run inline on the triggering request (the default).
    #[default]
    Inline,
    /// Flushes and merges run on a background worker pool.
    Background(BackgroundPolicy),
}

impl Scheduler {
    /// Shorthand for `Background(BackgroundPolicy::default())`.
    pub fn background() -> Self {
        Scheduler::Background(BackgroundPolicy::default())
    }

    /// The background policy, if any.
    pub fn background_policy(&self) -> Option<BackgroundPolicy> {
        match self {
            Scheduler::Inline => None,
            Scheduler::Background(p) => Some(*p),
        }
    }
}

/// Tuning of the background merge scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackgroundPolicy {
    /// Worker threads draining the job queue. At least 1.
    pub workers: usize,
    /// Admission-control bound: how many sealed (immutable) memtables a
    /// tree may accumulate before further writers stall until a background
    /// flush frees a slot. At least 1.
    pub max_imm_memtables: usize,
}

impl Default for BackgroundPolicy {
    fn default() -> Self {
        BackgroundPolicy { workers: 2, max_imm_memtables: 4 }
    }
}

/// WAL commit discipline (see
/// [`TreeOptions::group_commit`](crate::TreeOptionsBuilder::group_commit)).
///
/// Controls when an append to a write-ahead log becomes crash-durable.
/// Only WAL-backed front-ends consult it; trees without a WAL ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitMode {
    /// Appends are buffered; fsync happens only at explicit sync points
    /// (checkpoints, [`crate::ShardedLsmTree::sync_wals`], shutdown). The
    /// historical default: fastest, loses the unsynced tail on a crash.
    #[default]
    Buffered,
    /// An apply (or a batch) returns only once an fsync covers it. With
    /// concurrent writers it is leader/follower group commit: each writer
    /// appends under the shard lock, then the first waiter becomes the
    /// leader and issues one fsync covering every append buffered so far;
    /// the rest ride along. A lone writer pays one fsync an apply.
    Group,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_geometry() {
        let c = LsmConfig::default().validated().unwrap();
        assert_eq!(c.record_size(), 113);
        // (4096 - 16) / 113 = 36 records per block.
        assert_eq!(c.block_capacity(), 36);
        assert_eq!(c.level_capacity_blocks(0), 250);
        assert_eq!(c.level_capacity_blocks(1), 2500);
        assert_eq!(c.level_capacity_blocks(2), 25000);
        assert_eq!(c.l0_capacity_records(), 250 * 36);
    }

    #[test]
    fn merge_window_is_delta_fraction() {
        let c = LsmConfig { merge_rate: 0.05, ..LsmConfig::default() };
        assert_eq!(c.merge_window_blocks(0), 12); // floor(0.05 * 250)
        assert_eq!(c.merge_window_blocks(1), 125);
    }

    #[test]
    fn merge_window_is_at_least_one_block() {
        let c = LsmConfig { merge_rate: 0.001, k0_blocks: 10, ..LsmConfig::default() };
        assert_eq!(c.merge_window_blocks(0), 1);
    }

    #[test]
    fn validation_rejects_bad_settings() {
        assert!(LsmConfig { gamma: 1, ..LsmConfig::default() }.validated().is_err());
        assert!(LsmConfig { merge_rate: 0.0, ..LsmConfig::default() }.validated().is_err());
        assert!(LsmConfig { merge_rate: 1.5, ..LsmConfig::default() }.validated().is_err());
        assert!(LsmConfig { waste_eps: 0.6, ..LsmConfig::default() }.validated().is_err());
        assert!(LsmConfig { k0_blocks: 0, ..LsmConfig::default() }.validated().is_err());
        assert!(LsmConfig { payload_size: 5000, ..LsmConfig::default() }.validated().is_err());
        assert!(LsmConfig { cache_blocks: 0, ..LsmConfig::default() }.validated().is_err());
        // What a manifest may carry: sizes past the address space.
        assert!(LsmConfig { k0_blocks: usize::MAX / 2, ..LsmConfig::default() }
            .validated()
            .is_err());
        assert!(LsmConfig { cache_blocks: 1 << 60, ..LsmConfig::default() }.validated().is_err());
        assert!(LsmConfig { payload_size: usize::MAX, ..LsmConfig::default() }
            .validated()
            .is_err());
        assert!(LsmConfig::default().validated().is_ok());
    }

    #[test]
    fn giant_payload_one_record_per_block() {
        // Paper Fig 9: with 4000-byte payloads a block stores one record.
        let c = LsmConfig { payload_size: 4000, ..LsmConfig::default() };
        assert_eq!(c.block_capacity(), 1);
        assert!(c.validated().is_ok());
    }
}
