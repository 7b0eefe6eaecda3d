//! # sim-ssd — block-storage substrate for LSM-on-SSD experiments
//!
//! This crate provides the storage layer underneath the `lsm-tree` crate,
//! reproducing the experimental substrate of Thonangi & Yang, *On
//! Log-Structured Merge for Solid-State Drives* (ICDE 2017):
//!
//! * [`BlockDevice`] — a block-granular storage trait (fixed-size frames,
//!   default 4 KiB, matching the paper's setup).
//! * [`MemDevice`] — an in-memory simulated SSD with **exact** read / write /
//!   trim accounting and per-block wear counters. The paper's primary metric
//!   is the count of data-block writes, instrumented "precisely, independent
//!   of the platform"; `MemDevice` counts the same events at the same
//!   granularity.
//! * [`FileDevice`] — a file-backed device for running the same code against
//!   a real filesystem.
//! * [`BlockAllocator`] — a free-list block allocator. LSM levels in this
//!   design may occupy non-contiguous physical blocks (§II-B of the paper
//!   relaxes sequential level storage because SSD random reads are cheap),
//!   so allocation is fully dynamic.
//! * [`SieveCache`] — a generic buffer cache that evicts by SIEVE. The paper
//!   gives each index an LRU data-block cache; its metric is block writes,
//!   which a replacement policy cannot change, so the policy serves reads.
//!   (The internal B+tree nodes the paper pins are, here, the fences every
//!   level keeps in memory — never cache entries.)
//! * [`CostModel`] — an SSD time/energy model used to convert I/O counts
//!   into estimated device time (the paper's secondary metric).
//! * [`FaultDevice`] — a deterministic, seeded fault-injection decorator
//!   over any device: scripted transient errors, bit flips, torn writes,
//!   dropped syncs, and power cuts, for crash / error-path testing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alloc;
pub mod cache;
pub mod cost;
pub mod device;
pub mod error;
pub mod fault;
pub mod file;
pub mod mem;
pub mod stats;

pub use alloc::BlockAllocator;
pub use cache::{LruCache, SieveCache};
pub use cost::CostModel;
pub use device::{BlockDevice, BlockId, DEFAULT_BLOCK_SIZE};
pub use error::{DeviceError, FaultKind, Result};
pub use fault::{FaultDevice, FaultPlan, SplitMix64};
pub use file::{
    dir_syncs, fsync_parent_dir, probe_direct, FileDevice, FileDeviceOptions, FileSyscalls,
};
pub use mem::{MemDevice, WearCell, WearSnapshot, WearSummary};
pub use stats::{IoSnapshot, IoStats};
