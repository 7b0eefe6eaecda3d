//! Cost accounting, broken down by level.
//!
//! The paper measures the number of data-block writes, per level and in
//! total (§III: "we break the cost down by level, considering the cost of
//! merging into each Li"). [`TreeStats`] mirrors that accounting; the
//! per-merge structure (cycle boundaries for the Mixed-policy learner, the
//! figure harnesses' traces) flows through [`observe::Event`]s emitted to
//! the sink registered on the tree.
//!
//! Write-path counters (puts, deletes, per-level merge costs) are plain
//! integers mutated under `&mut self` — the tree has a single writer.
//! Read-path counters (lookups, per-lookup probe costs) are relaxed
//! atomics so *concurrent* readers holding only `&LsmTree` (e.g. through a
//! shard of [`crate::sharded::ShardedLsmTree`]) are still counted instead
//! of being silently dropped.

use std::sync::atomic::{AtomicU64, Ordering};

/// Was a merge full or partial?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeKind {
    /// The whole source level was merged down.
    Full,
    /// A δ-fraction window of the source was merged down.
    Partial,
}

/// Per-level counters. Index convention: `levels[i]` in [`TreeStats`] is
/// paper-level `L_{i+1}` (L0 never incurs I/O).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Merges into this level.
    pub merges_in: u64,
    /// Data blocks written in this level by merges (the paper's metric).
    pub blocks_written: u64,
    /// Blocks read by merges into this level, plus those this level's
    /// pairwise fixes and compactions read.
    pub blocks_read: u64,
    /// Input blocks preserved (re-linked without rewriting).
    pub blocks_preserved: u64,
    /// Records merged into this level.
    pub records_in: u64,
    /// Compactions of this level.
    pub compactions: u64,
    /// Blocks written by those compactions.
    pub compaction_writes: u64,
    /// Pairwise waste fix-ups (two neighbours fused into one block).
    pub pairwise_fixes: u64,
}

impl LevelStats {
    /// Add every counter of `other` into `self` (shard aggregation).
    pub fn absorb(&mut self, other: &LevelStats) {
        self.merges_in += other.merges_in;
        self.blocks_written += other.blocks_written;
        self.blocks_read += other.blocks_read;
        self.blocks_preserved += other.blocks_preserved;
        self.records_in += other.records_in;
        self.compactions += other.compactions;
        self.compaction_writes += other.compaction_writes;
        self.pairwise_fixes += other.pairwise_fixes;
    }
}

/// Whole-tree counters.
///
/// The lookup counters are interior-mutable (relaxed atomics) so the
/// shared read path can account through `&self`; read them with
/// [`TreeStats::lookups`], [`TreeStats::lookup_block_reads`], and
/// [`TreeStats::bloom_skips`].
#[derive(Debug, Default)]
pub struct TreeStats {
    /// Per-level counters; `levels[0]` is L1.
    pub levels: Vec<LevelStats>,
    /// Put requests applied.
    pub puts: u64,
    /// Delete requests applied.
    pub deletes: u64,
    lookups: AtomicU64,
    lookup_block_reads: AtomicU64,
    bloom_skips: AtomicU64,
}

impl Clone for TreeStats {
    fn clone(&self) -> Self {
        TreeStats {
            levels: self.levels.clone(),
            puts: self.puts,
            deletes: self.deletes,
            lookups: AtomicU64::new(self.lookups()),
            lookup_block_reads: AtomicU64::new(self.lookup_block_reads()),
            bloom_skips: AtomicU64::new(self.bloom_skips()),
        }
    }
}

impl PartialEq for TreeStats {
    fn eq(&self, other: &Self) -> bool {
        self.levels == other.levels
            && self.puts == other.puts
            && self.deletes == other.deletes
            && self.lookups() == other.lookups()
            && self.lookup_block_reads() == other.lookup_block_reads()
            && self.bloom_skips() == other.bloom_skips()
    }
}

impl Eq for TreeStats {}

impl TreeStats {
    /// Counter bundle for paper-level `i ≥ 1`, growing the vector on demand.
    pub fn level_mut(&mut self, paper_level: usize) -> &mut LevelStats {
        assert!(paper_level >= 1, "L0 incurs no I/O");
        let idx = paper_level - 1;
        if self.levels.len() <= idx {
            self.levels.resize(idx + 1, LevelStats::default());
        }
        &mut self.levels[idx]
    }

    /// Counter bundle for paper-level `i ≥ 1` (zeroes if never touched).
    pub fn level(&self, paper_level: usize) -> LevelStats {
        assert!(paper_level >= 1);
        self.levels.get(paper_level - 1).copied().unwrap_or_default()
    }

    /// Counters as a checkpoint recorded them, the lookup counters being
    /// `[lookups, lookup_block_reads, bloom_skips]`.
    pub(crate) fn restored(
        levels: Vec<LevelStats>,
        puts: u64,
        deletes: u64,
        lookups: [u64; 3],
    ) -> Self {
        let [lookups, lookup_block_reads, bloom_skips] = lookups.map(AtomicU64::new);
        TreeStats { levels, puts, deletes, lookups, lookup_block_reads, bloom_skips }
    }

    /// Point lookups served (counted by `get`; `peek` stays invisible).
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Blocks read by lookups (not merges).
    pub fn lookup_block_reads(&self) -> u64 {
        self.lookup_block_reads.load(Ordering::Relaxed)
    }

    /// Lookups answered without any block read thanks to Bloom filters.
    pub fn bloom_skips(&self) -> u64 {
        self.bloom_skips.load(Ordering::Relaxed)
    }

    /// Count one served lookup (read path, `&self` on purpose).
    pub(crate) fn note_lookup(&self) {
        self.lookups.fetch_add(1, Ordering::Relaxed);
    }

    /// Charge probe costs of a lookup (read path, `&self` on purpose).
    pub(crate) fn note_lookup_costs(&self, block_reads: u64, bloom_skips: u64) {
        if block_reads > 0 {
            self.lookup_block_reads.fetch_add(block_reads, Ordering::Relaxed);
        }
        if bloom_skips > 0 {
            self.bloom_skips.fetch_add(bloom_skips, Ordering::Relaxed);
        }
    }

    /// Add every counter of `other` into `self` — the aggregation used by
    /// [`crate::sharded::ShardedLsmTree::stats`] to present N shards as one
    /// logical index.
    pub fn absorb(&mut self, other: &TreeStats) {
        if self.levels.len() < other.levels.len() {
            self.levels.resize(other.levels.len(), LevelStats::default());
        }
        for (mine, theirs) in self.levels.iter_mut().zip(&other.levels) {
            mine.absorb(theirs);
        }
        self.puts += other.puts;
        self.deletes += other.deletes;
        self.lookups.fetch_add(other.lookups(), Ordering::Relaxed);
        self.lookup_block_reads.fetch_add(other.lookup_block_reads(), Ordering::Relaxed);
        self.bloom_skips.fetch_add(other.bloom_skips(), Ordering::Relaxed);
    }

    /// Total data-block writes across all levels — the paper's primary
    /// cost measure.
    pub fn total_blocks_written(&self) -> u64 {
        self.levels.iter().map(|l| l.blocks_written).sum()
    }

    /// Total data-block reads by merges.
    pub fn total_blocks_read(&self) -> u64 {
        self.levels.iter().map(|l| l.blocks_read).sum()
    }

    /// Total preserved blocks.
    pub fn total_blocks_preserved(&self) -> u64 {
        self.levels.iter().map(|l| l.blocks_preserved).sum()
    }

    /// Total requests applied.
    pub fn total_requests(&self) -> u64 {
        self.puts + self.deletes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_mut_grows_on_demand() {
        let mut s = TreeStats::default();
        s.level_mut(3).blocks_written += 7;
        assert_eq!(s.levels.len(), 3);
        assert_eq!(s.level(3).blocks_written, 7);
        assert_eq!(s.level(1), LevelStats::default());
        assert_eq!(s.level(9), LevelStats::default());
    }

    #[test]
    fn totals_sum_levels() {
        let mut s = TreeStats::default();
        s.level_mut(1).blocks_written = 10;
        s.level_mut(1).blocks_read = 4;
        s.level_mut(2).blocks_written = 5;
        s.level_mut(2).blocks_preserved = 2;
        assert_eq!(s.total_blocks_written(), 15);
        assert_eq!(s.total_blocks_read(), 4);
        assert_eq!(s.total_blocks_preserved(), 2);
        s.puts = 3;
        s.deletes = 2;
        assert_eq!(s.total_requests(), 5);
    }

    #[test]
    fn lookup_counters_work_through_shared_refs() {
        let s = TreeStats::default();
        s.note_lookup();
        s.note_lookup();
        s.note_lookup_costs(3, 1);
        assert_eq!(s.lookups(), 2);
        assert_eq!(s.lookup_block_reads(), 3);
        assert_eq!(s.bloom_skips(), 1);
        let cloned = s.clone();
        assert_eq!(cloned, s);
        assert_eq!(cloned.lookups(), 2);
    }

    #[test]
    fn absorb_sums_everything() {
        let mut a = TreeStats { puts: 1, ..Default::default() };
        a.level_mut(1).blocks_written = 2;
        a.note_lookup();
        let mut b = TreeStats { puts: 4, deletes: 5, ..Default::default() };
        b.level_mut(2).blocks_written = 7;
        b.note_lookup();
        b.note_lookup_costs(2, 0);
        a.absorb(&b);
        assert_eq!(a.puts, 5);
        assert_eq!(a.deletes, 5);
        assert_eq!(a.levels.len(), 2);
        assert_eq!(a.level(1).blocks_written, 2);
        assert_eq!(a.level(2).blocks_written, 7);
        assert_eq!(a.lookups(), 2);
        assert_eq!(a.lookup_block_reads(), 2);
    }

    #[test]
    #[should_panic(expected = "L0 incurs no I/O")]
    fn level_zero_is_rejected() {
        let mut s = TreeStats::default();
        let _ = s.level_mut(0);
    }
}
