//! Error types for the LSM-tree.

use std::fmt;

use sim_ssd::DeviceError;

use crate::record::Key;

/// Result alias for tree operations.
pub type Result<T> = std::result::Result<T, LsmError>;

/// Errors surfaced by the LSM-tree.
#[derive(Debug)]
pub enum LsmError {
    /// The storage substrate failed.
    Device(DeviceError),
    /// A frame could not be decoded into a data block.
    Codec(String),
    /// A record does not fit the configured geometry (e.g. payload larger
    /// than a block).
    RecordTooLarge {
        /// Serialized record size.
        record_bytes: usize,
        /// Usable bytes per block.
        block_payload_bytes: usize,
    },
    /// A put's payload is larger than the configured
    /// [`payload_size`](crate::LsmConfig::payload_size): records a block
    /// holds, and with them every merge's packing and waste bound, are
    /// counted at that size.
    PayloadTooLarge {
        /// The payload's size.
        payload_bytes: usize,
        /// The configured payload size.
        payload_size: usize,
    },
    /// Configuration rejected at construction time.
    Config(String),
    /// An internal invariant was violated (a bug; surfaced instead of UB).
    Invariant(String),
    /// Data was lost to unrecoverable corruption: the listed key ranges may
    /// be missing. The tree stays usable for everything outside them.
    Degraded {
        /// Inclusive `[min, max]` key ranges whose records may be lost.
        ranges: Vec<(Key, Key)>,
    },
    /// The operation was rejected because the subsystem it needs (the merge
    /// scheduler, usually) is shutting down. A writer stalled on
    /// backpressure when the scheduler stops gets this instead of hanging
    /// forever on a pool that will never drain its backlog.
    Shutdown(String),
}

impl fmt::Display for LsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LsmError::Device(e) => write!(f, "device error: {e}"),
            LsmError::Codec(m) => write!(f, "codec error: {m}"),
            LsmError::RecordTooLarge { record_bytes, block_payload_bytes } => write!(
                f,
                "record of {record_bytes} bytes exceeds block payload capacity {block_payload_bytes}"
            ),
            LsmError::PayloadTooLarge { payload_bytes, payload_size } => write!(
                f,
                "payload of {payload_bytes} bytes exceeds the configured payload size {payload_size}"
            ),
            LsmError::Config(m) => write!(f, "invalid configuration: {m}"),
            LsmError::Invariant(m) => write!(f, "invariant violation: {m}"),
            LsmError::Degraded { ranges } => {
                write!(f, "degraded: {} key range(s) may be lost:", ranges.len())?;
                for (lo, hi) in ranges {
                    write!(f, " [{lo},{hi}]")?;
                }
                Ok(())
            }
            LsmError::Shutdown(m) => write!(f, "shutting down: {m}"),
        }
    }
}

impl std::error::Error for LsmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LsmError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeviceError> for LsmError {
    fn from(e: DeviceError) -> Self {
        LsmError::Device(e)
    }
}
