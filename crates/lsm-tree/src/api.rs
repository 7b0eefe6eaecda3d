//! The unified write-path interface: [`WriteApi`] + [`WriteBatch`].
//!
//! Every front-end — [`LsmTree`](crate::LsmTree),
//! [`ShardedLsmTree`](crate::ShardedLsmTree) (the durable one, given a WAL
//! directory), and [`SteppedMergeTree`](crate::SteppedMergeTree) — speaks
//! the same five-verb
//! vocabulary (`put` / `delete` / `apply` / `write_batch` / `flush`), so
//! workload generators and benches drive any of them through one generic
//! bound instead of accumulating per-type method drift. The historical
//! inherent methods remain (concrete callers see no change); the trait
//! routes through them.
//!
//! `flush` is the quiescence point: it drains whatever the front-end has
//! buffered — sealed memtables, pending merge jobs, unsynced WAL bytes — so
//! that a subsequent read (or crash) observes everything previously applied.
//! On an inline tree it is a cheap no-op.

use bytes::Bytes;

use crate::error::Result;
use crate::record::{Key, Request};

/// An ordered batch of write requests, applied front to back (so a later
/// `put` shadows an earlier one for the same key, exactly as if applied
/// one by one).
///
/// Batches exist for two reasons: they let callers hand a whole unit of
/// work across the [`WriteApi`] boundary in one call, and they let
/// WAL-backed front-ends commit the unit with a *single* fsync
/// ([`CommitMode::Group`](crate::CommitMode) and the batch override in
/// [`ShardedLsmTree`](crate::ShardedLsmTree)) instead of one per request.
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    reqs: Vec<Request>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// An empty batch with room for `n` requests.
    pub fn with_capacity(n: usize) -> Self {
        WriteBatch { reqs: Vec::with_capacity(n) }
    }

    /// Queue an insert/update. Returns `&mut self` for chaining.
    pub fn put(&mut self, key: Key, payload: impl Into<Bytes>) -> &mut Self {
        self.reqs.push(Request::Put(key, payload.into()));
        self
    }

    /// Queue a delete. Returns `&mut self` for chaining.
    pub fn delete(&mut self, key: Key) -> &mut Self {
        self.reqs.push(Request::Delete(key));
        self
    }

    /// Queue an arbitrary request.
    pub fn push(&mut self, req: Request) -> &mut Self {
        self.reqs.push(req);
        self
    }

    /// Queued requests, in application order.
    pub fn requests(&self) -> &[Request] {
        &self.reqs
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// Consume the batch, yielding the requests.
    pub fn into_requests(self) -> Vec<Request> {
        self.reqs
    }
}

impl FromIterator<Request> for WriteBatch {
    fn from_iter<I: IntoIterator<Item = Request>>(iter: I) -> Self {
        WriteBatch { reqs: iter.into_iter().collect() }
    }
}

impl Extend<Request> for WriteBatch {
    fn extend<I: IntoIterator<Item = Request>>(&mut self, iter: I) {
        self.reqs.extend(iter);
    }
}

impl IntoIterator for WriteBatch {
    type Item = Request;
    type IntoIter = std::vec::IntoIter<Request>;
    fn into_iter(self) -> Self::IntoIter {
        self.reqs.into_iter()
    }
}

/// The write path every front-end implements.
///
/// Methods take `&mut self` so single-threaded front-ends implement the
/// trait without interior mutability; the concurrent front-end
/// ([`ShardedLsmTree`](crate::ShardedLsmTree)) is `Clone`, so callers that
/// need shared `&self` writes keep using its inherent methods and hand
/// each thread its own clone for trait-generic code.
///
/// `put` takes `impl Into<Bytes>`, so the trait is not object-safe; use it
/// as a generic bound (`fn run<W: WriteApi>(w: &mut W)`), which is what the
/// workload and bench crates do.
pub trait WriteApi {
    /// Apply one request (insert/update or delete).
    fn apply(&mut self, req: Request) -> Result<()>;

    /// Drain everything buffered — sealed memtables, queued merge jobs,
    /// unsynced WAL bytes — so prior writes are visible to readers and (for
    /// WAL-backed front-ends) crash-durable. No-op when nothing is pending.
    fn flush(&mut self) -> Result<()>;

    /// Insert or update `key`.
    fn put(&mut self, key: Key, payload: impl Into<Bytes>) -> Result<()> {
        self.apply(Request::Put(key, payload.into()))
    }

    /// Delete `key`.
    fn delete(&mut self, key: Key) -> Result<()> {
        self.apply(Request::Delete(key))
    }

    /// Apply a batch front to back. The default simply loops
    /// [`WriteApi::apply`]; WAL-backed front-ends override it to commit the
    /// whole batch under one fsync.
    fn write_batch(&mut self, batch: WriteBatch) -> Result<()> {
        for req in batch {
            self.apply(req)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LsmConfig;
    use crate::tree::{LsmTree, TreeOptions};

    fn tiny_cfg() -> LsmConfig {
        LsmConfig {
            block_size: 256,
            payload_size: 4,
            k0_blocks: 4,
            gamma: 4,
            cache_blocks: 64,
            merge_rate: 0.25,
            ..LsmConfig::default()
        }
    }

    #[test]
    fn batch_applies_in_order() {
        let mut t = LsmTree::with_mem_device(tiny_cfg(), TreeOptions::default(), 1 << 16).unwrap();
        let mut b = WriteBatch::new();
        b.put(1, vec![1u8; 4]).put(2, vec![2u8; 4]).delete(1).put(2, vec![9u8; 4]);
        assert_eq!(b.len(), 4);
        t.write_batch(b).unwrap();
        assert_eq!(t.get(1).unwrap(), None, "later delete shadows the put");
        assert_eq!(t.get(2).unwrap().as_deref(), Some(&[9u8; 4][..]), "last write wins");
    }

    #[test]
    fn generic_driver_works_over_any_front_end() {
        fn drive<W: WriteApi>(w: &mut W) {
            for k in 0..300u64 {
                w.put(k, vec![(k % 251) as u8; 4]).unwrap();
            }
            w.delete(7).unwrap();
            w.flush().unwrap();
        }
        let mut plain =
            LsmTree::with_mem_device(tiny_cfg(), TreeOptions::default(), 1 << 16).unwrap();
        drive(&mut plain);
        assert_eq!(plain.get(7).unwrap(), None);
        assert_eq!(plain.get(8).unwrap().as_deref(), Some(&[8u8; 4][..]));

        let mut stepped =
            crate::SteppedMergeTree::with_mem_device(tiny_cfg(), TreeOptions::default(), 1 << 16)
                .unwrap();
        drive(&mut stepped);
        assert_eq!(stepped.get(7).unwrap(), None);

        let opts = TreeOptions::default();
        let mut one_shard =
            crate::ShardedLsmTree::with_mem_devices(tiny_cfg(), opts, 1, 1 << 16).unwrap();
        drive(&mut one_shard);
        assert_eq!(one_shard.get(7).unwrap(), None);
    }

    #[test]
    fn batch_collects_from_iterator() {
        let b: WriteBatch = (0..5u64).map(|k| Request::Put(k, vec![0u8; 4].into())).collect();
        assert_eq!(b.len(), 5);
        assert!(!b.is_empty());
        assert_eq!(b.requests().len(), 5);
    }
}
