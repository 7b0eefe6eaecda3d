//! # lsm-tree — LSM with partial & block-preserving merges
//!
//! A from-scratch implementation of the LSM-tree of Thonangi & Yang,
//! *On Log-Structured Merge for Solid-State Drives* (ICDE 2017):
//!
//! * the modified LSM structure with **relaxed level storage** — data
//!   blocks need not be contiguous or full, bounded by level-wise and
//!   pairwise waste constraints (§II-B);
//! * the **flexible merge operation** that pushes an arbitrary subsequence
//!   of a level down into the next, with **block preservation** — reusing
//!   input blocks unmodified whenever the waste checks allow (§II-B);
//! * the merge **policies** `Full`, `RR`, `ChooseBest`, and `Mixed`, each
//!   with or without block preservation (§III–IV);
//! * the **threshold learner** that fits `Mixed`'s per-level parameters
//!   top-down with golden-section search (§IV-C).
//!
//! ```
//! use lsm_tree::{LsmConfig, LsmTree, PolicySpec, TreeOptions};
//!
//! let cfg = LsmConfig { k0_blocks: 4, cache_blocks: 64, ..LsmConfig::default() };
//! let mut tree = LsmTree::with_mem_device(
//!     cfg,
//!     TreeOptions::builder().policy(PolicySpec::ChooseBest).build(),
//!     1 << 14,
//! ).unwrap();
//! tree.put(42, vec![1, 2, 3]).unwrap();
//! assert_eq!(tree.get(42).unwrap().as_deref(), Some(&[1u8, 2, 3][..]));
//! tree.delete(42).unwrap();
//! assert_eq!(tree.get(42).unwrap(), None);
//! ```
//!
//! Every layer reports [`observe::Event`]s to the sink registered on
//! [`TreeOptions`] (or later via [`LsmTree::set_sink`]) — see the
//! re-exported [`observe`] crate for the sink toolkit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod block;
pub mod bloom;
pub mod checksum;
pub mod config;
pub mod error;
pub mod history;
pub mod iter;
pub mod level;
pub mod lockorder;
pub mod manifest;
pub mod memtable;
pub mod merge;
pub mod policy;
pub mod record;
pub mod report;
pub mod scheduler;
mod shard;
pub mod sharded;
pub mod stats;
pub mod stepped;
pub mod store;
pub mod torture;
pub mod tree;
pub mod verify;
pub mod wal;

pub use observe;

pub use api::{WriteApi, WriteBatch};
pub use block::{BlockHandle, DataBlock};
pub use bloom::BloomFilter;
pub use config::{BackgroundPolicy, CommitMode, LsmConfig, Scheduler};
pub use error::{LsmError, Result};
pub use history::{AckStatus, HistoryChecker, HistoryRecord, HistoryViolation};
pub use manifest::Manifest;
pub use memtable::Memtable;
pub use merge::{MergeEngine, MergeOutcome, MergeSource};
pub use policy::ledger::{Candidate, DecisionLedger, DecisionRow, LedgerTotals};
pub use policy::{MergeChoice, MergePolicy, MixedParams, PolicySpec};
pub use record::{Key, OpKind, Record, Request, RequestSource};
pub use report::Report;
pub use scheduler::{set_watchdog_timeout_ms, MergeScheduler, SchedulerSnapshot};
pub use sharded::ShardedLsmTree;
pub use stats::{LevelStats, MergeKind, TreeStats};
pub use stepped::SteppedMergeTree;
pub use store::{RetryPolicy, Store};
pub use torture::{run_crash_cycle, TortureBackend, TortureConfig, TortureFailure, TortureReport};
pub use tree::{LsmTree, TreeOptions, TreeOptionsBuilder};
pub use wal::{WalFaultPlan, WriteAheadLog};
