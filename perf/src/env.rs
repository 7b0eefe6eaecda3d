//! What every workload shares: the fixed engine configuration, sizing
//! presets, counter snapshots taken from outside the engine, process
//! accounting, and the scratch directory.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use lsm_tree::{CommitMode, LsmConfig, PolicySpec, Scheduler, ShardedLsmTree, TreeOptions};
use sim_ssd::{FileDevice, FileSyscalls, IoSnapshot};

pub const BLOCK_SIZE: usize = 4096;
/// Encoded bytes of one record: 8 B key + 1 B op + 4 B length + 100 B payload.
pub const RECORD_BYTES: u64 = 113;
/// `B`, records per 4 KiB block at that record size.
pub const RECORDS_PER_BLOCK: u64 = 36;

/// The shared configuration: 4 KiB blocks, Γ = 10, ε = 0.2, δ = 0.07,
/// 10 Bloom bits per key. Only L0 size and cache size vary by workload.
pub fn config(k0_blocks: usize, cache_blocks: usize) -> LsmConfig {
    LsmConfig {
        block_size: BLOCK_SIZE,
        payload_size: crate::gen::PAYLOAD_LEN,
        k0_blocks,
        gamma: 10,
        waste_eps: 0.2,
        merge_rate: 0.07,
        cache_blocks,
        bloom_bits_per_key: 10,
    }
}

/// `ChooseBest` with block preservation, under the given scheduler and
/// WAL commit discipline.
pub fn options(scheduler: Scheduler, commit: CommitMode) -> TreeOptions {
    TreeOptions::builder()
        .policy(PolicySpec::ChooseBest)
        .preserve_blocks(true)
        .scheduler(scheduler)
        .group_commit(commit)
        .build()
}

/// How big a run is. `gate` is the one real sizing: what the driver's time
/// cap affords (the ISSUE's state sizes cut by four, L0 with them, so the
/// tree keeps its four-level shape). `smoke` only proves that every path
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Smoke,
    Gate,
}

#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub size: Size,
    /// Keys preloaded by `ingest` and `read`.
    pub tree_keys: u64,
    /// L0 capacity for `ingest`, `read`, `mixed` and the layer replay.
    pub k0_blocks: usize,
    /// `read`: cache of ~7 % of the data blocks.
    pub read_cache_blocks: usize,
    /// `mixed`: keys preloaded, and a cache the data fits in.
    pub mixed_keys: u64,
    pub mixed_cache_blocks: usize,
    /// `durable`: L0 large enough that merging is a minor share, and puts
    /// per group commit.
    pub durable_k0_blocks: usize,
    pub durable_commit_puts: usize,
    /// Rounds and requests per round of each primary phase (`durable`:
    /// epochs, and puts per epoch).
    pub ingest: Phase,
    pub read: Phase,
    pub mixed: Phase,
    pub durable: Phase,
    /// Read-back pass run after every workload.
    pub readback_gets: Phase,
    pub readback_scans: Phase,
    /// How many times set-up runs (`setup_s` is the median), per workload
    /// indexed by `Kind as usize`: the loaded file tree of `ingest`/`read` is
    /// expensive and built once, `mixed`'s preload and `durable`'s warm-up
    /// epoch are cheap and repeated.
    pub setup_reps: [usize; 4],
    /// Wall time the layer replay spends per measured function.
    pub layer_budget_ms: u64,
}

/// A timed phase: `rounds` equal rounds of `ops` requests each.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub rounds: usize,
    pub ops: usize,
}

impl Phase {
    /// `total` requests cut into `rounds` rounds.
    const fn cut(total: usize, rounds: usize) -> Phase {
        Phase { rounds, ops: total / rounds }
    }
}

/// `mixed` offers this many operations per second, open loop.
pub const MIXED_RATE_OPS: u64 = 60_000;
/// `mixed`: a request is on time when it finishes within this long of the
/// moment it was due. A hundred service times, and a fifth of the median
/// maintenance step: a request that met a held shard lock misses it however
/// the stall was cut into steps.
pub const ON_TIME_NS: u64 = 100_000;
/// `durable`: writer threads, on disjoint keys.
pub const DURABLE_WRITERS: usize = 2;

impl Sizing {
    /// Request counts scale with `seconds` from rates measured at the seed
    /// commit, so a run measures for about that long there — and both
    /// sides of a later comparison do identical work. Rounds are short
    /// (a few tenths of a second) and many: interference on the shared
    /// box comes in stretches of about a second, and a median over many
    /// short rounds steps over them.
    pub fn new(size: Size, seconds: u64) -> Self {
        let s = seconds.max(1) as usize;
        match size {
            Size::Gate => Sizing {
                size,
                tree_keys: 500_000,
                k0_blocks: 64,
                read_cache_blocks: 1024,
                mixed_keys: 250_000,
                mixed_cache_blocks: 16_384,
                durable_k0_blocks: 1000,
                durable_commit_puts: 8192,
                ingest: Phase::cut(130_000 * s, 24),
                read: Phase::cut(150_000 * s, 32),
                mixed: Phase::cut(MIXED_RATE_OPS as usize * s, 32),
                durable: Phase {
                    rounds: 16,
                    ops: (10_000 * s).next_multiple_of(DURABLE_WRITERS * 8192),
                },
                readback_gets: Phase { rounds: 16, ops: 2_500 },
                readback_scans: Phase { rounds: 8, ops: 1_500 },
                setup_reps: [1, 1, 3, 3],
                layer_budget_ms: 60,
            },
            Size::Smoke => Sizing {
                size,
                tree_keys: 100_000,
                k0_blocks: 16,
                read_cache_blocks: 256,
                mixed_keys: 100_000,
                mixed_cache_blocks: 8192,
                durable_k0_blocks: 250,
                durable_commit_puts: 500,
                ingest: Phase { rounds: 2, ops: 40_000 },
                read: Phase { rounds: 2, ops: 30_000 },
                mixed: Phase { rounds: 2, ops: 30_000 },
                durable: Phase { rounds: 2, ops: 20_000 },
                readback_gets: Phase { rounds: 2, ops: 2_000 },
                readback_scans: Phase { rounds: 2, ops: 500 },
                setup_reps: [1; 4],
                layer_budget_ms: 5,
            },
        }
    }
}

/// Counters read from outside the engine, summed over shards.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub puts: u64,
    pub deletes: u64,
    pub lookups: u64,
    pub lookup_block_reads: u64,
    pub bloom_skips: u64,
    /// Per on-device level, L1 first.
    pub levels: Vec<lsm_tree::LevelStats>,
    pub io: IoSnapshot,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub syscalls: FileSyscalls,
    pub wal_fsyncs: u64,
    pub wal_bytes: u64,
    pub height: u64,
}

impl Counters {
    pub fn read(tree: &ShardedLsmTree, file: Option<&Arc<FileDevice>>) -> Self {
        let stats = tree.stats();
        let mut c = Counters {
            puts: stats.puts,
            deletes: stats.deletes,
            lookups: stats.lookups(),
            lookup_block_reads: stats.lookup_block_reads(),
            bloom_skips: stats.bloom_skips(),
            levels: stats.levels.clone(),
            syscalls: file.map(|f| f.syscalls()).unwrap_or_default(),
            wal_fsyncs: tree.wal_fsyncs(),
            wal_bytes: tree.wal_lens().iter().sum(),
            height: tree.height() as u64,
            ..Counters::default()
        };
        for shard in 0..tree.shard_count() {
            tree.with_shard_read(shard, |t| {
                let io = t.store().io_snapshot();
                c.io.reads += io.reads;
                c.io.writes += io.writes;
                c.io.trims += io.trims;
                c.io.syncs += io.syncs;
                let cache = t.store().cache_stats();
                c.cache_hits += cache.hits;
                c.cache_misses += cache.misses;
                c.cache_evictions += cache.evictions;
            });
        }
        c
    }

    /// Counter-wise `self - earlier` (the height, a gauge, keeps `self`'s
    /// value).
    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut levels = self.levels.clone();
        for (mine, theirs) in levels.iter_mut().zip(&earlier.levels) {
            mine.merges_in -= theirs.merges_in;
            mine.blocks_written -= theirs.blocks_written;
            mine.blocks_read -= theirs.blocks_read;
            mine.blocks_preserved -= theirs.blocks_preserved;
            mine.records_in -= theirs.records_in;
            mine.compactions -= theirs.compactions;
            mine.compaction_writes -= theirs.compaction_writes;
            mine.pairwise_fixes -= theirs.pairwise_fixes;
        }
        Counters {
            puts: self.puts - earlier.puts,
            deletes: self.deletes - earlier.deletes,
            lookups: self.lookups - earlier.lookups,
            lookup_block_reads: self.lookup_block_reads - earlier.lookup_block_reads,
            bloom_skips: self.bloom_skips - earlier.bloom_skips,
            levels,
            io: self.io.since(&earlier.io),
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_evictions: self.cache_evictions - earlier.cache_evictions,
            syscalls: FileSyscalls {
                preads: self.syscalls.preads - earlier.syscalls.preads,
                pwrites: self.syscalls.pwrites - earlier.syscalls.pwrites,
            },
            wal_fsyncs: self.wal_fsyncs - earlier.wal_fsyncs,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            height: self.height,
        }
    }

    /// Add `other`'s event counters into `self` (epochs of `durable`).
    pub fn absorb(&mut self, other: &Counters) {
        self.puts += other.puts;
        self.deletes += other.deletes;
        self.lookups += other.lookups;
        self.lookup_block_reads += other.lookup_block_reads;
        self.bloom_skips += other.bloom_skips;
        if self.levels.len() < other.levels.len() {
            self.levels.resize(other.levels.len(), lsm_tree::LevelStats::default());
        }
        for (mine, theirs) in self.levels.iter_mut().zip(&other.levels) {
            mine.absorb(theirs);
        }
        self.io.reads += other.io.reads;
        self.io.writes += other.io.writes;
        self.io.trims += other.io.trims;
        self.io.syncs += other.io.syncs;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.syscalls.preads += other.syscalls.preads;
        self.syscalls.pwrites += other.syscalls.pwrites;
        self.wal_fsyncs += other.wal_fsyncs;
        self.wal_bytes += other.wal_bytes;
        self.height = other.height;
    }

    pub fn requests(&self) -> u64 {
        self.puts + self.deletes
    }

    pub fn merge_writes(&self) -> u64 {
        self.levels.iter().map(|l| l.blocks_written).sum()
    }

    pub fn merged_records(&self) -> u64 {
        self.levels.iter().map(|l| l.records_in).sum()
    }

    pub fn merges(&self) -> u64 {
        self.levels.iter().map(|l| l.merges_in).sum()
    }
}

/// Device space at one moment: blocks in use, and the live records they
/// hold. A live record whose current version is still in L0 (a memtable)
/// occupies no device block, so it counts on neither side.
#[derive(Debug, Clone, Copy)]
pub struct Space {
    pub live_blocks: u64,
    pub device_records: u64,
}

impl Space {
    /// `live_keys` is the oracle's count of live keys right now.
    pub fn read(tree: &ShardedLsmTree, live_keys: u64) -> Self {
        let (mut live_blocks, mut l0_puts) = (0u64, 0u64);
        for shard in 0..tree.shard_count() {
            tree.with_shard_read(shard, |t| {
                live_blocks += t.store().live_blocks();
                l0_puts += std::iter::once(t.memtable())
                    .chain(t.imm_memtables())
                    .flat_map(|m| m.iter())
                    .filter(|r| !r.is_tombstone())
                    .count() as u64;
            });
        }
        Space { live_blocks, device_records: live_keys.saturating_sub(l0_puts) }
    }
}

/// Process CPU time (user + system, every thread) in seconds, from
/// `/proc/self/stat`. The kernel reports clock ticks; Linux fixes
/// `USER_HZ` at 100 for userspace.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let ticks: u64 = fields.by_ref().take(2).filter_map(|f| f.parse::<u64>().ok()).sum();
    ticks as f64 / 100.0
}

/// Peak resident set size in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A directory under the data root that is removed on drop. Device and
/// WAL files live here — inside the checkout, because the benchmark may
/// write nowhere else.
#[derive(Debug)]
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn new(root: &Path, label: &str) -> std::io::Result<Self> {
        let path = root.join(format!("{label}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory.
    pub fn subdir(&self, name: &str) -> std::io::Result<PathBuf> {
        let p = self.path.join(name);
        if p.exists() {
            std::fs::remove_dir_all(&p)?;
        }
        std::fs::create_dir_all(&p)?;
        Ok(p)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
    }
}

/// Default data root: `.data` next to the benchmark's manifest.
pub fn default_data_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".data")
}

/// Which filesystem `path` is on, from `/proc/mounts` (longest mount-point
/// prefix) — recorded so a reader knows whether fsync hit a disk.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_geometry_is_the_papers() {
        let cfg = config(250, 256).validated().unwrap();
        assert_eq!(cfg.record_size() as u64, RECORD_BYTES);
        assert_eq!(cfg.block_capacity() as u64, RECORDS_PER_BLOCK);
    }

    #[test]
    fn gate_sizing_keeps_the_issues_tree_shape() {
        // The ISSUE's table: 2 M keys over a 250-block L0, cache of 4 096.
        let g = Sizing::new(Size::Gate, 10);
        // Same ratio of data to L0 ⇒ same number of levels, same fill of the last.
        let (gr, fr) = (g.tree_keys / g.k0_blocks as u64, 2_000_000 / 250);
        assert!(gr.abs_diff(fr) * 20 < fr, "keys per L0 block: gate {gr}, ISSUE {fr}");
        assert_eq!(g.tree_keys * 4096, 2_000_000 * g.read_cache_blocks as u64);
        for p in [g.ingest, g.read, g.mixed, g.durable] {
            assert!(p.rounds >= 5 && p.ops > 0);
        }
        // A `durable` epoch is a whole number of commits per writer.
        for s in [g, Sizing::new(Size::Smoke, 10)] {
            assert_eq!(s.durable.ops % (DURABLE_WRITERS * s.durable_commit_puts), 0);
        }
    }

    #[test]
    fn process_accounting_reads_something() {
        // The kernel counts CPU in 10 ms ticks: burn until one is charged.
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while cpu_seconds() == 0.0 && start.elapsed().as_secs() < 5 {
            for i in 0..1_000_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 1.0);
    }
}
