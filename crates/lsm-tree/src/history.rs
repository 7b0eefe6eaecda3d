//! Durability history checking and the one crash rule of both crash
//! harnesses: the concurrent torture ([`crate::torture`]) and the model
//! oracle's crash op (`oracle.rs`, DESIGN.md §6). `cut_wal_tail` is what
//! a power cut leaves of a log, `judge` what recovery may keep of a
//! shard's history.
//!
//! Each write has an *invocation* (the WAL append, under the shard lock —
//! which fixes the per-shard order) and an *acknowledgement* (an fsync
//! covering it completed: an explicit sync or a checkpoint, or its group
//! commit under [`CommitMode::Group`](crate::CommitMode::Group)). A crash
//! may land between the two. The checkable contract is **prefix
//! durability per shard**:
//!
//! 1. the recovered shard equals the replay of some prefix `P` of the
//!    shard's invocation-ordered history, and
//! 2. `P` covers every *acknowledged* write — an acked write may only be
//!    invisible if a later write in `P` superseded it, never because it
//!    was lost;
//! 3. unacknowledged ([`AckStatus::Pending`] / [`AckStatus::Failed`])
//!    writes may appear, but only as members of that same prefix — a
//!    group-commit cohort becomes durable (or not) in append order, so a
//!    pending write can never be visible while an *earlier* write of the
//!    same shard is lost.
//!
//! [`HistoryChecker::check`] verifies all three with one incremental
//! diff-walk over the history (O(history + state)). Both harnesses also
//! mark pending writes acked at append — an ack-before-fsync bug — and
//! this checker is what must catch it.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

use sim_ssd::SplitMix64;

use crate::record::Key;
use crate::sharded::ShardedLsmTree;
use crate::tree::LsmTree;

/// Where a recorded write stands in the invocation→acknowledgement
/// lifecycle at crash time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckStatus {
    /// The writer was told the write is durable (fsync covering it
    /// succeeded). Losing it after a crash is a durability violation.
    Acked,
    /// Invoked but not yet acknowledged (e.g. waiting on a group-commit
    /// fsync). May or may not survive a crash.
    Pending,
    /// The write errored back to the writer (injected fault, poisoned
    /// WAL). Like `Pending`, it may still be partially durable — the
    /// append may have reached the log even though the fsync failed.
    Failed,
}

/// One write in a shard's invocation-ordered history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryRecord {
    /// The logical writer that issued the request.
    pub writer: usize,
    /// The key written.
    pub key: Key,
    /// `Some(payload)` for a put, `None` for a delete.
    pub value: Option<Vec<u8>>,
    /// Ack state at crash time.
    pub status: AckStatus,
}

/// A sample mismatched key: `(key, predicted payload, recovered payload)`
/// — `None` meaning absent on either side.
pub type MismatchSample = (Key, Option<Vec<u8>>, Option<Vec<u8>>);

/// A prefix-durability violation: no history prefix both matches the
/// recovered state and covers every acknowledged write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryViolation {
    /// Records that must be in any acceptable prefix (index of the last
    /// acked record + 1).
    pub required_floor: usize,
    /// Total records in the history.
    pub history_len: usize,
    /// The closest the walk got: `(prefix, mismatched_keys)` with the
    /// fewest mismatches among prefixes at or beyond the floor.
    pub best: (usize, usize),
    /// A sample mismatched key at the best prefix, with what the history
    /// predicts and what recovery produced.
    pub sample: Option<MismatchSample>,
}

impl fmt::Display for HistoryViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no durable prefix: floor {} of {} records, best prefix {} still \
             mismatches {} key(s)",
            self.required_floor, self.history_len, self.best.0, self.best.1
        )?;
        if let Some((key, want, got)) = &self.sample {
            write!(f, "; e.g. key {key}: history predicts {want:?}, recovered {got:?}")?;
        }
        Ok(())
    }
}

/// Invocation-ordered history of one shard's writes, with the prefix
/// durability check. Records are appended in WAL-append order (the shard
/// lock already serializes that order for the recorder).
#[derive(Debug, Default, Clone)]
pub struct HistoryChecker {
    records: Vec<HistoryRecord>,
}

impl HistoryChecker {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record, returning its index (used to update the status
    /// once the ack outcome is known).
    pub fn append(&mut self, record: HistoryRecord) -> usize {
        self.records.push(record);
        self.records.len() - 1
    }

    /// Update a record's ack status (e.g. Pending → Acked when the
    /// group-commit fsync covering it completes).
    pub fn set_status(&mut self, index: usize, status: AckStatus) {
        self.records[index].status = status;
    }

    /// Records appended so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records, in invocation order.
    pub fn records(&self) -> &[HistoryRecord] {
        &self.records
    }

    /// Index of the last acknowledged record plus one: the smallest
    /// prefix any recovered state may legally correspond to.
    pub fn required_floor(&self) -> usize {
        self.records.iter().rposition(|r| r.status == AckStatus::Acked).map_or(0, |i| i + 1)
    }

    /// Check `recovered` (the shard's live key→payload map after
    /// recovery) against the history. Returns the shortest matching
    /// prefix length on success.
    pub fn check(
        &self,
        recovered: &HashMap<Key, Vec<u8>>,
    ) -> std::result::Result<usize, Box<HistoryViolation>> {
        let floor = self.required_floor();
        // model: key → visible payload predicted by the prefix walked so
        // far (None = deleted). Missing = never touched, predicted absent.
        let mut model: HashMap<Key, Option<Vec<u8>>> = HashMap::new();
        // Every key recovery reports starts mismatched against the empty
        // model; keys recovery invented (never in the history) can then
        // never match, which is exactly right.
        let mut diff = recovered.len();
        let mut best = (0usize, diff);
        if floor == 0 && diff == 0 {
            return Ok(0);
        }
        for (p, rec) in self.records.iter().enumerate() {
            let recovered_v = recovered.get(&rec.key);
            let old_matches =
                model.get(&rec.key).map_or(recovered_v.is_none(), |m| m.as_ref() == recovered_v);
            let new_matches = rec.value.as_ref() == recovered_v;
            match (old_matches, new_matches) {
                (true, false) => diff += 1,
                (false, true) => diff -= 1,
                _ => {}
            }
            model.insert(rec.key, rec.value.clone());
            let prefix = p + 1;
            if prefix >= floor {
                if diff == 0 {
                    return Ok(prefix);
                }
                if diff < best.1 || best.0 < floor {
                    best = (prefix, diff);
                }
            }
        }
        // No prefix matched: report the closest miss with a sample key —
        // the smallest mismatched key, so the message is deterministic
        // (HashMap iteration order must not leak into seeded replays).
        let sample = recovered
            .iter()
            .filter(|(k, v)| model.get(*k).is_none_or(|m| m.as_deref() != Some(v.as_slice())))
            .map(|(k, v)| (*k, model.get(k).cloned().flatten(), Some(v.clone())))
            .chain(model.iter().filter_map(|(k, m)| match (m, recovered.get(k)) {
                (Some(want), None) => Some((*k, Some(want.clone()), None)),
                _ => None,
            }))
            .min_by_key(|(k, _, _)| *k);
        Err(Box::new(HistoryViolation {
            required_floor: floor,
            history_len: self.records.len(),
            best,
            sample,
        }))
    }
}

/// Every log of `tree` (logging under `dir`) as a power cut finds it: its
/// path, its synced length and the bytes its file holds — noted at that
/// instant, before the tree is dropped.
pub(crate) fn logs_at_cut(tree: &ShardedLsmTree, dir: &Path) -> Vec<(PathBuf, u64, u64)> {
    let synced = tree.wal_synced_lens().into_iter().enumerate();
    let noted = |(i, synced)| {
        let path = ShardedLsmTree::wal_path(dir, i);
        let on_disk = std::fs::metadata(&path).map_or(0, |m| m.len());
        (path, synced, on_disk)
    };
    synced.map(noted).collect()
}

/// The host died: the log at `path` keeps its first `synced` bytes and a
/// seeded share of the tail its file held beyond them when the power went
/// (`on_disk` bytes in all) — what a page cache can leave behind. Nothing
/// the log's user-space buffer or a destructor wrote since survives.
/// Returns the bytes kept.
pub(crate) fn cut_wal_tail(
    path: &Path,
    synced: u64,
    on_disk: u64,
    rng: &mut SplitMix64,
) -> std::io::Result<u64> {
    let synced = synced.min(on_disk);
    let tail = on_disk - synced;
    let keep = synced + if tail > 0 { rng.gen_range(tail + 1) } else { 0 };
    std::fs::OpenOptions::new().write(true).open(path)?.set_len(keep)?;
    Ok(keep)
}

/// The durability judgement: what recovery kept of a shard must be a
/// prefix of its `history` that covers every acknowledged request.
/// Returns that prefix and the live keys recovered.
pub(crate) fn judge(history: &HistoryChecker, tree: &LsmTree) -> Result<(u64, u64), String> {
    let contents: HashMap<Key, Vec<u8>> = tree
        .scan(0, Key::MAX)
        .map(|r| r.map(|(k, v)| (k, v.to_vec())))
        .collect::<crate::error::Result<_>>()
        .map_err(|e| format!("scan of the recovered tree failed: {e}"))?;
    let keys = contents.len() as u64;
    match history.check(&contents) {
        Ok(prefix) => Ok((prefix as u64, keys)),
        Err(v) => Err(format!("durability history violation: {v} ({keys} recovered keys)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(writer: usize, key: Key, v: u8, status: AckStatus) -> HistoryRecord {
        HistoryRecord { writer, key, value: Some(vec![v; 4]), status }
    }

    fn del(writer: usize, key: Key, status: AckStatus) -> HistoryRecord {
        HistoryRecord { writer, key, value: None, status }
    }

    fn state(pairs: &[(Key, u8)]) -> HashMap<Key, Vec<u8>> {
        pairs.iter().map(|&(k, v)| (k, vec![v; 4])).collect()
    }

    #[test]
    fn full_history_durable() {
        let mut h = HistoryChecker::new();
        h.append(put(0, 1, 10, AckStatus::Acked));
        h.append(put(1, 2, 20, AckStatus::Acked));
        h.append(del(0, 1, AckStatus::Acked));
        assert_eq!(h.check(&state(&[(2, 20)])), Ok(3));
    }

    #[test]
    fn pending_tail_may_be_lost() {
        let mut h = HistoryChecker::new();
        h.append(put(0, 1, 10, AckStatus::Acked));
        h.append(put(1, 2, 20, AckStatus::Pending));
        h.append(put(0, 3, 30, AckStatus::Failed));
        // Any prefix ≥ 1 is legal: lost tail…
        assert_eq!(h.check(&state(&[(1, 10)])), Ok(1));
        // …partially durable tail…
        assert_eq!(h.check(&state(&[(1, 10), (2, 20)])), Ok(2));
        // …or fully durable tail (failed append still hit the log).
        assert_eq!(h.check(&state(&[(1, 10), (2, 20), (3, 30)])), Ok(3));
    }

    #[test]
    fn lost_acked_write_is_a_violation() {
        let mut h = HistoryChecker::new();
        h.append(put(0, 1, 10, AckStatus::Acked));
        h.append(put(1, 2, 20, AckStatus::Acked));
        let err = h.check(&state(&[(1, 10)])).unwrap_err();
        assert_eq!(err.required_floor, 2);
        assert!(err.to_string().contains("no durable prefix"), "{err}");
    }

    #[test]
    fn superseded_acked_write_is_fine() {
        let mut h = HistoryChecker::new();
        h.append(put(0, 1, 10, AckStatus::Acked));
        h.append(put(1, 1, 11, AckStatus::Acked));
        assert_eq!(h.check(&state(&[(1, 11)])), Ok(2));
        // But recovering the *old* value while the new one was acked is a
        // violation — the prefix rule sees through overwrites.
        assert!(h.check(&state(&[(1, 10)])).is_err());
    }

    #[test]
    fn out_of_order_durability_is_a_violation() {
        // A pending write surviving while an EARLIER write of the same
        // shard is lost breaks the prefix (WAL replay stops at the first
        // torn frame, so this catches cohort-ordering bugs).
        let mut h = HistoryChecker::new();
        h.append(put(0, 1, 10, AckStatus::Pending));
        h.append(put(1, 2, 20, AckStatus::Pending));
        assert!(h.check(&state(&[(2, 20)])).is_err());
    }

    #[test]
    fn phantom_keys_are_a_violation() {
        let mut h = HistoryChecker::new();
        h.append(put(0, 1, 10, AckStatus::Acked));
        let err = h.check(&state(&[(1, 10), (99, 9)])).unwrap_err();
        assert!(err.sample.is_some());
    }

    #[test]
    fn empty_history_matches_empty_state_only() {
        let h = HistoryChecker::new();
        assert_eq!(h.check(&HashMap::new()), Ok(0));
        assert!(h.check(&state(&[(1, 1)])).is_err());
    }

    #[test]
    fn a_cut_keeps_the_synced_bytes_and_nothing_past_the_noted_length() {
        let path = std::env::temp_dir().join(format!("lsm-cut-tail-{}", std::process::id()));
        let (mut rng, mut kept) = (SplitMix64::new(5), std::collections::BTreeSet::new());
        for _ in 0..40 {
            // 100 bytes on disk at the cut, 20 more that a destructor flushed.
            std::fs::write(&path, [7u8; 120]).unwrap();
            let keep = cut_wal_tail(&path, 30, 100, &mut rng).unwrap();
            assert!((30..=100).contains(&keep), "kept {keep}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), keep);
            kept.insert(keep);
        }
        assert!(kept.len() > 10, "a seeded share of the tail: {kept:?}");
        std::fs::write(&path, [7u8; 64]).unwrap();
        assert_eq!(cut_wal_tail(&path, 64, 64, &mut rng).unwrap(), 64, "no tail: the whole file");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 64);
        std::fs::remove_file(&path).ok();
    }
}
