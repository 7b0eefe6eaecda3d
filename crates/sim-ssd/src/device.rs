//! The block-device abstraction.

use bytes::Bytes;
use observe::SinkHandle;

use crate::error::Result;
use crate::stats::IoSnapshot;

/// Default block size: 4 KiB, the paper's experimental setting (§V).
pub const DEFAULT_BLOCK_SIZE: usize = 4096;

/// Identifier of a physical block on a device.
///
/// Block ids are dense integers handed out by a [`crate::BlockAllocator`];
/// nothing about the id implies physical adjacency — the LSM layout in this
/// design deliberately permits non-contiguous level storage (§II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

impl BlockId {
    /// The raw integer id.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A fixed-frame block device.
///
/// All reads and writes are whole-block. Implementations must be thread-safe
/// (`&self` methods, internal synchronization) so a cache and a merge can
/// stream concurrently.
pub trait BlockDevice: Send + Sync {
    /// Fixed frame size in bytes. Every write must supply exactly this many.
    fn block_size(&self) -> usize;

    /// Device capacity in blocks.
    fn capacity(&self) -> u64;

    /// Read one block. Returns the full frame.
    fn read(&self, id: BlockId) -> Result<Bytes>;

    /// Write one full frame to a block.
    fn write(&self, id: BlockId, frame: &[u8]) -> Result<()>;

    /// Discard a block's contents (TRIM). Subsequent reads fail until the
    /// block is written again. Trims are tracked separately from writes —
    /// they do not wear the flash the way program operations do.
    fn trim(&self, id: BlockId) -> Result<()>;

    /// Flush any volatile state to stable storage.
    fn sync(&self) -> Result<()>;

    /// Read several blocks in one call, one result per requested id, in
    /// order.
    ///
    /// The default implementation is a plain loop over [`read`] and every
    /// override must stay **observably identical** to that loop: same
    /// per-block results, same per-block events, same I/O-counter deltas.
    /// What an override may change is how many *syscalls* (or inner
    /// batched calls) the batch costs. No device overrides it: no engine
    /// path reads several blocks at once (a merge opens an input block
    /// when its stream reaches it), so [`crate::FileDevice`] reads one
    /// block per pread.
    ///
    /// [`read`]: BlockDevice::read
    fn read_many(&self, ids: &[BlockId]) -> Vec<Result<Bytes>> {
        ids.iter().map(|&id| self.read(id)).collect()
    }

    /// Write several full frames in one call, one result per entry, in
    /// order. Same contract as [`read_many`](BlockDevice::read_many): the
    /// default loops over [`write`](BlockDevice::write), and overrides must
    /// be observably identical to that loop per block.
    fn write_many(&self, batch: &[(BlockId, Bytes)]) -> Vec<Result<()>> {
        batch.iter().map(|(id, frame)| self.write(*id, frame)).collect()
    }

    /// Snapshot of the device's I/O counters.
    fn io_snapshot(&self) -> IoSnapshot;

    /// Register an event sink: the device reports each successful read,
    /// write, trim and sync as an [`observe::Event`]. Pass
    /// `SinkHandle::none()` to detach. The default implementation ignores
    /// the registration, so trivial test doubles stay silent.
    fn set_sink(&self, _sink: SinkHandle) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_id_display_and_order() {
        let a = BlockId(3);
        let b = BlockId(10);
        assert!(a < b);
        assert_eq!(a.to_string(), "b3");
        assert_eq!(b.raw(), 10);
    }
}
