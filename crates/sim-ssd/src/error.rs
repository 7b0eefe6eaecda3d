//! Error types for device operations.

use std::fmt;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DeviceError>;

/// What kind of operation an injected fault hit.
///
/// Carried inside [`DeviceError::Injected`] so upper layers can classify the
/// failure structurally instead of parsing a message string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A read returned a transient error.
    Read,
    /// A write returned a transient error (nothing landed).
    Write,
    /// A sync returned a transient error (buffered writes kept, not durable).
    Sync,
    /// A trim returned an error (the block keeps its content).
    Trim,
    /// The device is powered off: all unsynced state is gone and the device
    /// rejects mutations until power is restored.
    PowerCut,
}

impl FaultKind {
    /// Stable lower-case name, used in error messages and event payloads.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Read => "read",
            FaultKind::Write => "write",
            FaultKind::Sync => "sync",
            FaultKind::Trim => "trim",
            FaultKind::PowerCut => "power_cut",
        }
    }
}

/// Errors surfaced by block devices and the allocator.
#[derive(Debug)]
pub enum DeviceError {
    /// A block id past the device capacity was addressed.
    OutOfRange {
        /// The offending block id.
        block: u64,
        /// Device capacity in blocks.
        capacity: u64,
    },
    /// A read hit a block that was never written (or was trimmed).
    Unwritten(u64),
    /// A write buffer did not match the device block size.
    BadFrameSize {
        /// Bytes supplied by the caller.
        got: usize,
        /// The device's fixed block size.
        expected: usize,
    },
    /// The device ran out of free blocks.
    NoSpace,
    /// An injected fault fired (failure-injection testing).
    Injected {
        /// Which operation the fault hit.
        kind: FaultKind,
        /// Device-op index (reads + writes + trims + syncs) when it fired.
        op: u64,
    },
    /// The device entered a poisoned state (e.g. a failed `sync_data`) and
    /// refuses further mutations until it is re-opened.
    Poisoned,
    /// Underlying filesystem error (file-backed device only).
    Io(std::io::Error),
    /// A frame failed its integrity check.
    Corrupt(u64),
    /// The backing file's length is inconsistent with the requested block
    /// size (torn resize, or the device was created with a different block
    /// size). Opening with the wrong geometry would silently drop the
    /// trailing partial block, so it is refused instead.
    Geometry {
        /// Length of the backing file in bytes.
        file_len: u64,
        /// The block size the open was attempted with.
        block_size: usize,
    },
}

impl DeviceError {
    /// Whether retrying the same operation can plausibly succeed.
    ///
    /// Transient: injected read/write/sync errors and interrupted-style
    /// `io::Error`s. Permanent: power cut, poisoned device, corruption,
    /// addressing errors, and space exhaustion — retrying those either cannot
    /// help or would mask a real bug.
    pub fn is_transient(&self) -> bool {
        match self {
            DeviceError::Injected { kind, .. } => !matches!(kind, FaultKind::PowerCut),
            DeviceError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::TimedOut
            ),
            DeviceError::OutOfRange { .. }
            | DeviceError::Unwritten(_)
            | DeviceError::BadFrameSize { .. }
            | DeviceError::NoSpace
            | DeviceError::Poisoned
            | DeviceError::Corrupt(_)
            | DeviceError::Geometry { .. } => false,
        }
    }
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfRange { block, capacity } => {
                write!(f, "block {block} out of range (capacity {capacity} blocks)")
            }
            DeviceError::Unwritten(b) => write!(f, "read of unwritten/trimmed block {b}"),
            DeviceError::BadFrameSize { got, expected } => {
                write!(f, "frame of {got} bytes does not match block size {expected}")
            }
            DeviceError::NoSpace => write!(f, "device has no free blocks"),
            DeviceError::Injected { kind, op } => {
                write!(f, "injected {} fault at device op {op}", kind.name())
            }
            DeviceError::Poisoned => {
                write!(f, "device is poisoned after a failed sync; re-open to continue")
            }
            DeviceError::Io(e) => write!(f, "i/o error: {e}"),
            DeviceError::Corrupt(b) => write!(f, "integrity check failed for block {b}"),
            DeviceError::Geometry { file_len, block_size } => {
                write!(
                    f,
                    "file length {file_len} is not a multiple of block size {block_size} \
                     (torn resize or wrong block size)"
                )
            }
        }
    }
}

impl std::error::Error for DeviceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeviceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DeviceError {
    fn from(e: std::io::Error) -> Self {
        DeviceError::Io(e)
    }
}
