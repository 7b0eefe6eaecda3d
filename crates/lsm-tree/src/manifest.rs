//! Checkpoint & recovery: persisting the index's metadata.
//!
//! The paper notes that the internal B+tree nodes (our fence tables) "can
//! be reconstructed from data blocks and hence need not be persisted"
//! (§V, footnote). A production index still wants a cheap way to reopen
//! without scanning the whole device, so this module provides a
//! LevelDB-style **manifest**: a checksummed snapshot of the fence tables,
//! per-level merge bookkeeping, policy cursors, the runs each level holds,
//! the tree's counters, and the memory-resident L0 (which would otherwise
//! need a write-ahead log).
//!
//! `LsmTree::checkpoint` writes the manifest to a sidecar file;
//! `LsmTree::restore` reopens a device against one. The format is a
//! hand-rolled little-endian binary layout (no serialization-format
//! dependency), guarded by a magic, a version, and a 64-bit
//! [`crate::checksum`] over the entire body (version 5, which carries the
//! runs a level holds and the [`TreeStats`] a reopened tree counts on
//! from; version 4 had neither, version 3 no Bloom filter bits in its fence
//! entries, version 2 summed with 32-bit lanes folded twice, version 1 with
//! a byte-at-a-time FNV-1a, and none of them is read: the version is
//! checked before the sum is).

use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use bytes::{BufMut, BytesMut};

use sim_ssd::{BlockDevice, BlockId};

use crate::block::BlockHandle;
use crate::bloom::BloomFilter;
use crate::checksum;
use crate::config::LsmConfig;
use crate::error::{LsmError, Result};
use crate::level::Level;
use crate::memtable::Memtable;
use crate::record::{Key, OpKind, Record, Request};
use crate::stats::{LevelStats, TreeStats};
use crate::store::Store;
use crate::tree::{LsmTree, TreeOptions};

const MANIFEST_MAGIC: u32 = 0x4C_53_4D_4D; // "LSMM"
const MANIFEST_VERSION: u32 = 5;

/// Everything needed to reopen an index: geometry, run fence tables,
/// waste bookkeeping, cursors, the runs a level holds, the counters, and
/// the L0 contents.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The index geometry the manifest was taken under.
    pub config: LsmConfig,
    /// L0 records at checkpoint time.
    pub memtable: Vec<Record>,
    /// L0's round-robin cursor.
    pub mem_rr_cursor: Option<Key>,
    /// Per-run snapshots in lookup order ([`LsmTree::levels`]): under a
    /// leveled policy one a level, top to bottom (`[0]` = L1).
    pub levels: Vec<LevelSnapshot>,
    /// Runs each level holds, top down ([`LsmTree::run_counts`]).
    pub runs: Vec<usize>,
    /// The tree's counters, which a restored tree counts on from.
    pub stats: TreeStats,
}

/// Snapshot of one on-SSD run (under a leveled policy, a level).
#[derive(Debug, Clone, PartialEq)]
pub struct LevelSnapshot {
    /// Fence entries (block id, key range, counts, Bloom filter).
    pub handles: Vec<HandleSnapshot>,
    /// `m_i` — merges since the last compaction.
    pub merges_since_compaction: u64,
    /// Accumulated preservation slack.
    pub slack_budget: f64,
    /// `w_i` — net empty-slot increase since the last compaction.
    pub waste_delta: i64,
    /// Round-robin cursor.
    pub rr_cursor: Option<Key>,
}

/// Persistable fence entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandleSnapshot {
    /// Physical block id.
    pub id: u64,
    /// Smallest key.
    pub min: Key,
    /// Largest key.
    pub max: Key,
    /// Records in the block.
    pub count: u32,
    /// Tombstones among them.
    pub tombstones: u32,
    /// The block's filter, if the index builds them: stored as its bits
    /// alone, its geometry being what `count` and the config's
    /// `bloom_bits_per_key` say.
    pub bloom: Option<BloomFilter>,
}

impl Manifest {
    /// Capture the state of `tree`.
    pub fn capture(tree: &LsmTree) -> Manifest {
        Manifest {
            config: tree.config().clone(),
            // Sealed memtables fold in oldest-first, the active one last:
            // restore replays these in order, so the newest version of each
            // key wins. The checkpoint format is unchanged — a background
            // tree's backlog simply lands in the (bigger) memtable section.
            memtable: tree
                .imm_memtables()
                .flat_map(|m| m.iter())
                .chain(tree.memtable().iter())
                .cloned()
                .collect(),
            mem_rr_cursor: tree.mem_rr_cursor(),
            levels: tree
                .levels()
                .iter()
                .map(|lvl| LevelSnapshot {
                    handles: lvl
                        .handles()
                        .iter()
                        .map(|h| HandleSnapshot {
                            id: h.id.raw(),
                            min: h.min,
                            max: h.max,
                            count: h.count,
                            tombstones: h.tombstones,
                            bloom: h.bloom.clone(),
                        })
                        .collect(),
                    merges_since_compaction: lvl.merges_since_compaction,
                    slack_budget: lvl.slack_budget,
                    waste_delta: lvl.waste_delta,
                    rr_cursor: lvl.rr_cursor,
                })
                .collect(),
            runs: tree.run_counts().to_vec(),
            stats: tree.stats().clone(),
        }
    }

    /// Serialize to the binary manifest format.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = BytesMut::new();
        let c = &self.config;
        body.put_u64_le(c.block_size as u64);
        body.put_u64_le(c.payload_size as u64);
        body.put_u64_le(c.k0_blocks as u64);
        body.put_u64_le(c.gamma as u64);
        body.put_f64_le(c.waste_eps);
        body.put_f64_le(c.merge_rate);
        body.put_u64_le(c.cache_blocks as u64);
        body.put_u64_le(c.bloom_bits_per_key as u64);
        put_opt_key(&mut body, self.mem_rr_cursor);
        body.put_u32_le(self.runs.len() as u32);
        self.runs.iter().for_each(|&n| body.put_u32_le(n as u32));
        let s = &self.stats;
        for n in [s.puts, s.deletes, s.lookups(), s.lookup_block_reads(), s.bloom_skips()] {
            body.put_u64_le(n);
        }
        body.put_u32_le(s.levels.len() as u32);
        for l in &s.levels {
            for n in [
                l.merges_in,
                l.blocks_written,
                l.blocks_read,
                l.blocks_preserved,
                l.records_in,
                l.compactions,
                l.compaction_writes,
                l.pairwise_fixes,
            ] {
                body.put_u64_le(n);
            }
        }
        body.put_u32_le(self.memtable.len() as u32);
        for r in &self.memtable {
            body.put_u64_le(r.key);
            body.put_u8(if r.is_tombstone() { 1 } else { 0 });
            body.put_u32_le(r.payload.len() as u32);
            body.put_slice(&r.payload);
        }
        body.put_u32_le(self.levels.len() as u32);
        for lvl in &self.levels {
            body.put_u64_le(lvl.merges_since_compaction);
            body.put_f64_le(lvl.slack_budget);
            body.put_i64_le(lvl.waste_delta);
            put_opt_key(&mut body, lvl.rr_cursor);
            body.put_u32_le(lvl.handles.len() as u32);
            for h in &lvl.handles {
                body.put_u64_le(h.id);
                body.put_u64_le(h.min);
                body.put_u64_le(h.max);
                body.put_u32_le(h.count);
                body.put_u32_le(h.tombstones);
                let bits = h.bloom.as_ref().map_or(&[][..], BloomFilter::bits);
                body.put_u32_le(bits.len() as u32);
                bits.iter().for_each(|&w| body.put_u64_le(w));
            }
        }
        let mut out = Vec::with_capacity(body.len() + 16);
        out.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.extend_from_slice(&checksum::sum64(0, &body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Parse a manifest previously produced by [`Manifest::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Manifest> {
        let mut r = Reader { buf: bytes, pos: 0 };
        let magic = r.u32()?;
        if magic != MANIFEST_MAGIC {
            return Err(LsmError::Codec(format!("bad manifest magic 0x{magic:08x}")));
        }
        let version = r.u32()?;
        if version != MANIFEST_VERSION {
            return Err(LsmError::Codec(format!("unsupported manifest version {version}")));
        }
        let stored_sum = r.u64()?;
        if checksum::sum64(0, &bytes[r.pos..]) != stored_sum {
            return Err(LsmError::Codec("manifest checksum mismatch".into()));
        }
        let config = LsmConfig {
            block_size: r.u64()? as usize,
            payload_size: r.u64()? as usize,
            k0_blocks: r.u64()? as usize,
            gamma: r.u64()? as usize,
            waste_eps: r.f64()?,
            merge_rate: r.f64()?,
            cache_blocks: r.u64()? as usize,
            bloom_bits_per_key: r.u64()? as usize,
        };
        let mem_rr_cursor = r.opt_key()?;
        // A count is only a capacity hint up to what the bytes left can
        // hold: 4 B a run count, 64 B a level's counters, 13 B a memtable
        // record, 36 B a handle.
        let n_counts = r.u32()? as usize;
        let mut runs = Vec::with_capacity(n_counts.min(r.left() / 4));
        for _ in 0..n_counts {
            runs.push(r.u32()?);
        }
        let runs = runs.into_iter().map(|n| n as usize).collect();
        let (puts, deletes) = (r.u64()?, r.u64()?);
        let lookups = [r.u64()?, r.u64()?, r.u64()?];
        let n_stats = r.u32()? as usize;
        let mut level_stats = Vec::with_capacity(n_stats.min(r.left() / 64));
        for _ in 0..n_stats {
            level_stats.push(LevelStats {
                merges_in: r.u64()?,
                blocks_written: r.u64()?,
                blocks_read: r.u64()?,
                blocks_preserved: r.u64()?,
                records_in: r.u64()?,
                compactions: r.u64()?,
                compaction_writes: r.u64()?,
                pairwise_fixes: r.u64()?,
            });
        }
        let stats = TreeStats::restored(level_stats, puts, deletes, lookups);
        let n_mem = r.u32()? as usize;
        let mut memtable = Vec::with_capacity(n_mem.min(r.left() / 13));
        for _ in 0..n_mem {
            let key = r.u64()?;
            let op = if r.u8()? == 1 { OpKind::Delete } else { OpKind::Put };
            let len = r.u32()? as usize;
            let payload = bytes::Bytes::copy_from_slice(r.bytes(len)?);
            memtable.push(Record { key, op, payload });
        }
        let n_levels = r.u32()? as usize;
        let mut levels = Vec::with_capacity(n_levels.min(64));
        for _ in 0..n_levels {
            let merges_since_compaction = r.u64()?;
            let slack_budget = r.f64()?;
            let waste_delta = r.i64()?;
            let rr_cursor = r.opt_key()?;
            let n_handles = r.u32()? as usize;
            let mut handles = Vec::with_capacity(n_handles.min(r.left() / 36));
            for _ in 0..n_handles {
                let (id, min, max, count, tombstones) =
                    (r.u64()?, r.u64()?, r.u64()?, r.u32()?, r.u32()?);
                let words = r.u32()? as usize;
                let bloom = filter_of(id, count, config.bloom_bits_per_key, r.words(words)?)?;
                handles.push(HandleSnapshot { id, min, max, count, tombstones, bloom });
            }
            levels.push(LevelSnapshot {
                handles,
                merges_since_compaction,
                slack_budget,
                waste_delta,
                rr_cursor,
            });
        }
        if r.pos != bytes.len() {
            return Err(LsmError::Codec("trailing bytes after manifest".into()));
        }
        Ok(Manifest { config, memtable, mem_rr_cursor, levels, runs, stats })
    }

    /// Every block id the manifest references.
    pub fn used_block_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.levels.iter().flat_map(|l| l.handles.iter().map(|h| h.id))
    }
}

/// The filter of block `id`, `count` records at `bits_per_key` (none at
/// 0), from its stored bits: refused unless they are as many as that
/// filter has.
fn filter_of(
    id: u64,
    count: u32,
    bits_per_key: usize,
    bits: impl ExactSizeIterator<Item = u64>,
) -> Result<Option<BloomFilter>> {
    let words = bits.len();
    let filter = match bits_per_key {
        0 => (words == 0).then_some(None),
        _ => BloomFilter::from_bits(count as usize, bits_per_key, bits).map(Some),
    };
    filter.ok_or_else(|| {
        LsmError::Codec(format!(
            "manifest block {id}: {words} filter words do not fit {count} records at \
             {bits_per_key} bits a key"
        ))
    })
}

fn put_opt_key(body: &mut BytesMut, k: Option<Key>) {
    match k {
        Some(k) => {
            body.put_u8(1);
            body.put_u64_le(k);
        }
        None => body.put_u8(0),
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn left(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let rest = &self.buf[self.pos..];
        let s = rest.get(..n).ok_or_else(|| LsmError::Codec("truncated manifest".into()))?;
        self.pos += n;
        Ok(s)
    }
    fn take<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, _) = self.buf[self.pos..]
            .split_first_chunk::<N>()
            .ok_or_else(|| LsmError::Codec("truncated manifest".into()))?;
        self.pos += N;
        Ok(*head)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take::<1>()?[0])
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take()?))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take()?))
    }
    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take()?))
    }
    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take()?))
    }
    /// `n` little-endian words.
    fn words(&mut self, n: usize) -> Result<impl ExactSizeIterator<Item = u64> + 'a> {
        let (words, _) = self.bytes(n * 8)?.as_chunks::<8>();
        Ok(words.iter().map(|w| u64::from_le_bytes(*w)))
    }
    fn opt_key(&mut self) -> Result<Option<Key>> {
        Ok(if self.u8()? == 1 { Some(self.u64()?) } else { None })
    }
}

impl LsmTree {
    /// Write a checkpoint manifest for this index to `path` (atomically:
    /// written to a temp file and renamed). The device itself is synced
    /// first so the manifest never references unwritten blocks.
    ///
    /// Crash-safe ordering: blocks referenced by the *previous* durable
    /// manifest are never trimmed before the new manifest's rename commits
    /// (the store defers those frees), so a power cut at any point leaves a
    /// manifest on disk whose blocks are all intact.
    pub fn checkpoint<P: AsRef<Path>>(&self, path: P) -> Result<()> {
        let _span = self.sink().span(observe::SpanOp::checkpoint());
        self.store().sync()?;
        let manifest = Manifest::capture(self);
        let bytes = manifest.encode();
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp).map_err(sim_ssd::DeviceError::Io)?;
            f.write_all(&bytes).map_err(sim_ssd::DeviceError::Io)?;
            f.sync_all().map_err(sim_ssd::DeviceError::Io)?;
        }
        std::fs::rename(&tmp, path).map_err(sim_ssd::DeviceError::Io)?;
        // A rename is only durable once the directory entry itself is on
        // disk; without this fsync a power cut can roll the directory back
        // to the old (or no) manifest even though the data file was synced.
        sim_ssd::fsync_parent_dir(path).map_err(sim_ssd::DeviceError::Io)?;
        // The rename committed: the new manifest's blocks become the
        // protected set and frees deferred on behalf of the old one happen.
        self.store().finish_checkpoint(manifest.used_block_ids())?;
        self.sink()
            .emit_with(|| observe::Event::Checkpoint { live_blocks: self.store().live_blocks() });
        Ok(())
    }

    /// Reopen an index from a checkpoint manifest and the device it
    /// references, counting on from the counters it recorded. `opts`
    /// chooses the policy for the new incarnation (the manifest stores data
    /// layout, not policy). Fails if the manifest is corrupt or its
    /// geometry does not match the device ([`LsmError::Codec`]), or if the
    /// policy cannot hold the runs its levels hold ([`LsmError::Config`],
    /// see [`crate::PolicySpec::admit`]).
    pub fn restore<P: AsRef<Path>>(
        path: P,
        opts: TreeOptions,
        device: Arc<dyn BlockDevice>,
    ) -> Result<Self> {
        let mut bytes = Vec::new();
        std::fs::File::open(path.as_ref())
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(sim_ssd::DeviceError::Io)?;
        let manifest = Manifest::decode(&bytes)?;
        let cfg = manifest.config.clone().validated()?;
        if manifest.runs.iter().sum::<usize>() != manifest.levels.len() {
            let (runs, n) = (&manifest.runs, manifest.levels.len());
            return Err(LsmError::Codec(format!("manifest run counts {runs:?} do not sum to {n}")));
        }
        let bottom = manifest.levels.last().map_or(&[][..], |l| &l.handles[..]);
        opts.policy.admit(&manifest.runs, bottom.iter().map(|h| u64::from(h.tombstones)).sum())?;
        if device.block_size() != cfg.block_size {
            return Err(LsmError::Config(format!(
                "device block size {} != manifest {}",
                device.block_size(),
                cfg.block_size
            )));
        }
        // The allocator takes the ids on trust: one past the device would
        // panic it, and one named twice would be freed from under the
        // handle that still holds it.
        let capacity = device.capacity();
        let mut used = std::collections::HashSet::new();
        for id in manifest.used_block_ids() {
            if id >= capacity {
                let msg = format!("manifest block {id} is past the device's {capacity} blocks");
                return Err(LsmError::Codec(msg));
            }
            if !used.insert(id) {
                return Err(LsmError::Codec(format!("manifest names block {id} twice")));
            }
        }
        let store = Store::with_allocated(device, cfg.cache_blocks, cfg.bloom_bits_per_key, used)
            .with_retry(opts.retry);

        let mut levels = Vec::with_capacity(manifest.levels.len().max(1));
        for (idx, snap) in manifest.levels.iter().enumerate() {
            let mut level = Level::new();
            let mut prev_max: Option<u64> = None;
            for h in &snap.handles {
                // Defend against a syntactically valid but structurally
                // corrupt manifest: handles must be ordered and disjoint.
                if h.min > h.max || prev_max.is_some_and(|pm| pm >= h.min) {
                    return Err(LsmError::Codec(format!(
                        "manifest run {} has unordered/overlapping handles",
                        idx
                    )));
                }
                prev_max = Some(h.max);
                level.push(BlockHandle {
                    id: BlockId(h.id),
                    min: h.min,
                    max: h.max,
                    count: h.count,
                    tombstones: h.tombstones,
                    bloom: h.bloom.clone(),
                });
            }
            level.merges_since_compaction = snap.merges_since_compaction;
            level.slack_budget = snap.slack_budget;
            level.waste_delta = snap.waste_delta;
            level.rr_cursor = snap.rr_cursor;
            levels.push(level);
        }

        let mut mem = Memtable::new();
        for r in manifest.memtable {
            let req = match r.op {
                OpKind::Put => Request::Put(r.key, r.payload),
                OpKind::Delete => Request::Delete(r.key),
            };
            mem.apply(req);
        }

        let runs = (levels, manifest.runs);
        Ok(LsmTree::assemble(cfg, opts, store, mem, runs, manifest.mem_rr_cursor, manifest.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicySpec;

    fn build_tree() -> LsmTree {
        build_tree_with_filters(0)
    }

    fn build_tree_with_filters(bloom_bits_per_key: usize) -> LsmTree {
        let cfg = LsmConfig {
            block_size: 256,
            payload_size: 4,
            k0_blocks: 4,
            gamma: 4,
            cache_blocks: 64,
            merge_rate: 0.25,
            bloom_bits_per_key,
            ..LsmConfig::default()
        };
        let mut t = LsmTree::with_mem_device(
            cfg,
            TreeOptions::builder().policy(PolicySpec::ChooseBest).build(),
            1 << 14,
        )
        .unwrap();
        for k in 0..1500u64 {
            t.put(k * 13 % 9973, vec![(k % 251) as u8; 4]).unwrap();
        }
        for k in (0..1500u64).step_by(3) {
            t.delete(k * 13 % 9973).unwrap();
        }
        t
    }

    #[test]
    fn manifest_round_trips() {
        // Without filters and with them: a restored level packs the filter
        // words the checkpointed one held. (The device holds nothing the
        // manifest names, so only the fence tables are compared.)
        for bloom_bits_per_key in [0, 10] {
            let tree = build_tree_with_filters(bloom_bits_per_key);
            let m = Manifest::capture(&tree);
            let bytes = m.encode();
            let back = Manifest::decode(&bytes).unwrap();
            assert_eq!(back, m);
            assert!(m.used_block_ids().count() > 0);
            let mut handles = m.levels.iter().flat_map(|l| &l.handles);
            assert!(handles.all(|h| h.bloom.is_some() == (bloom_bits_per_key > 0)));
            let restored = restore_over(&bytes, 1 << 14, "round-trip").unwrap();
            for (live, back) in tree.levels().iter().zip(restored.levels()) {
                let words = |l: &Level| -> Vec<Option<Vec<u64>>> {
                    let bits = |h: &BlockHandle| h.bloom.as_ref().map(|f| f.bits().to_vec());
                    l.handles().iter().map(bits).collect()
                };
                assert_eq!(words(back), words(live));
                back.validate(tree.config().block_capacity(), tree.config().waste_eps).unwrap();
            }
        }
    }

    /// A checkpoint restored over the same device gives back the runs, the
    /// runs each level holds and the counters — of a leveled tree and of a
    /// stepped one — and the restored tree answers as the live one does. A
    /// policy that cannot hold the stepped runs is refused.
    #[test]
    fn a_restored_tree_has_the_runs_and_counters_it_checkpointed() {
        let stepped = PolicySpec::SteppedMerge { fan_in: 3 };
        for policy in [PolicySpec::ChooseBest, stepped.clone()] {
            let cfg = build_tree().config().clone();
            let dev = Arc::new(sim_ssd::MemDevice::with_block_size(1 << 14, 256));
            let opts = |policy: &PolicySpec| TreeOptions::builder().policy(policy.clone()).build();
            let mut t = LsmTree::new(cfg, opts(&policy), dev.clone()).unwrap();
            for k in 0..1500u64 {
                t.put(k * 13 % 9973, vec![(k % 251) as u8; 4]).unwrap();
                if k % 3 == 0 {
                    t.delete(k * 7 % 9973).unwrap();
                    t.get(k * 11 % 9973).unwrap();
                }
            }
            let path = std::env::temp_dir().join(format!(
                "lsm-man-runs-{}-{}.manifest",
                policy.name(),
                std::process::id()
            ));
            t.checkpoint(&path).unwrap();
            let back = LsmTree::restore(&path, opts(&policy), dev.clone()).unwrap();
            let ids = |t: &LsmTree| -> Vec<Vec<u64>> {
                t.levels()
                    .iter()
                    .map(|l| l.handles().iter().map(|h| h.id.raw()).collect())
                    .collect()
            };
            assert_eq!((ids(&back), back.run_counts()), (ids(&t), t.run_counts()), "{policy:?}");
            assert!(back.stats() == t.stats(), "{policy:?}: {:?} != {:?}", back.stats(), t.stats());
            assert!(t.stats().lookups() > 0 && t.stats().total_blocks_written() > 0);
            for k in (0..10_000).step_by(7) {
                assert_eq!(back.get(k).unwrap(), t.peek(k).unwrap(), "{policy:?}: key {k}");
            }
            crate::verify::check_tree(&back, true).unwrap();
            if policy == stepped {
                assert!(t.run_counts().iter().any(|&n| n > 1), "runs {:?}", t.run_counts());
                for policy in [PolicySpec::ChooseBest, PolicySpec::SteppedMerge { fan_in: 1 }] {
                    match LsmTree::restore(&path, opts(&policy), dev.clone()) {
                        Err(LsmError::Config(_)) => {}
                        other => panic!("{policy:?} over {:?}: {:?}", t.run_counts(), other.err()),
                    }
                }
            }
            std::fs::remove_file(&path).ok();
        }
        // One flush of puts and deletes under Stepped-Merge: levels of one
        // run each, but a bottom with tombstones, which a leveled policy
        // cannot hold.
        let dev = Arc::new(sim_ssd::MemDevice::with_block_size(1 << 14, 256));
        let opts = |policy| TreeOptions::builder().policy(policy).build();
        let mut t =
            LsmTree::new(build_tree().config().clone(), opts(stepped), dev.clone()).unwrap();
        for k in 0..t.config().l0_capacity_records() as u64 {
            if k % 2 == 0 { t.put(k, vec![1; 4]) } else { t.delete(k) }.unwrap();
        }
        assert_eq!(t.run_counts(), [1]);
        let path =
            std::env::temp_dir().join(format!("lsm-man-tomb-{}.manifest", std::process::id()));
        t.checkpoint(&path).unwrap();
        match LsmTree::restore(&path, opts(PolicySpec::ChooseBest), dev) {
            Err(LsmError::Config(_)) => {}
            other => panic!("ChooseBest over a bottom with tombstones: {:?}", other.err()),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn decode_rejects_corruption() {
        let tree = build_tree();
        let bytes = Manifest::capture(&tree).encode();
        for pos in [0usize, 5, 12, 40, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(Manifest::decode(&bad).is_err(), "corruption at {pos} accepted");
        }
        assert!(Manifest::decode(&bytes[..bytes.len() - 3]).is_err(), "truncation accepted");
    }

    /// Restore `bytes` as a manifest over a fresh device of `blocks` blocks.
    fn restore_over(bytes: &[u8], blocks: u64, tag: &str) -> Result<LsmTree> {
        let path =
            std::env::temp_dir().join(format!("lsm-man-{tag}-{}.manifest", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let dev = std::sync::Arc::new(sim_ssd::MemDevice::with_block_size(blocks, 256));
        let got = LsmTree::restore(&path, TreeOptions::default(), dev);
        std::fs::remove_file(&path).ok();
        got
    }

    #[test]
    fn restore_refuses_block_ids_the_device_or_the_manifest_cannot_back() {
        // Regression: the ids went straight to the allocator, which panicked
        // on one past the device and silently merged one named twice — so
        // the first free of either handle released a block the other held.
        let mut t = build_tree();
        let mut k = 0u64;
        while Manifest::capture(&t).used_block_ids().max().unwrap() < 1 << 8 {
            t.put(10_000 + k, vec![1u8; 4]).unwrap();
            k += 1;
        }
        let m = Manifest::capture(&t);
        assert!(restore_over(&m.encode(), 1 << 14, "fits").is_ok());
        match restore_over(&m.encode(), 1 << 8, "small") {
            Err(LsmError::Codec(msg)) => assert!(msg.contains("past the device"), "{msg}"),
            other => panic!("a manifest past the device must be a codec error: {:?}", other.err()),
        }
        let mut twice = m.clone();
        assert!(twice.levels.len() >= 2, "need two levels");
        let id = twice.levels[0].handles[0].id;
        twice.levels[1].handles[0].id = id;
        match restore_over(&twice.encode(), 1 << 14, "twice") {
            Err(LsmError::Codec(msg)) => assert!(msg.contains("twice"), "{msg}"),
            other => panic!("a block named twice must be a codec error: {:?}", other.err()),
        }
    }

    #[test]
    fn restore_rejects_structurally_corrupt_manifest() {
        let tree = build_tree();
        let mut m = Manifest::capture(&tree);
        // Swap two handles of the largest level: ordered-disjoint breaks.
        let lvl = m.levels.iter_mut().max_by_key(|l| l.handles.len()).unwrap();
        assert!(lvl.handles.len() >= 2, "need at least two handles");
        lvl.handles.swap(0, 1);
        let bytes = m.encode();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("lsm-man-corrupt-{}.manifest", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let dev = std::sync::Arc::new(sim_ssd::MemDevice::with_block_size(1 << 14, 256));
        let got = LsmTree::restore(&path, TreeOptions::default(), dev);
        assert!(matches!(got, Err(LsmError::Codec(_))), "corrupt manifest accepted");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_fsyncs_the_manifest_directory() {
        let tree = build_tree();
        let path =
            std::env::temp_dir().join(format!("lsm-man-dirsync-{}.manifest", std::process::id()));
        let before = sim_ssd::dir_syncs();
        tree.checkpoint(&path).unwrap();
        // Regression: the rename used to commit without syncing the
        // directory, so a power cut could roll the directory entry back
        // even though the manifest file's contents were fsynced.
        assert!(
            sim_ssd::dir_syncs() > before,
            "checkpoint must fsync the manifest's parent directory after the rename"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn decode_rejects_wrong_magic_and_version() {
        let tree = build_tree();
        let mut bytes = Manifest::capture(&tree).encode();
        bytes[0] ^= 0xFF;
        assert!(Manifest::decode(&bytes).is_err());
        // A version-2 manifest (the version-3 layout under the old sum), a
        // version-3 one (no filter words) and a version-4 one (no run
        // counts, no counters): refused by their version, not reported as a
        // checksum mismatch or misread.
        for version in [2, 3, 4, 99] {
            let mut bytes = Manifest::capture(&tree).encode();
            bytes[4] = version;
            match Manifest::decode(&bytes) {
                Err(LsmError::Codec(msg)) => {
                    assert_eq!(msg, format!("unsupported manifest version {version}"))
                }
                other => panic!("version {version} must be a codec error, got {other:?}"),
            }
        }
    }
}
