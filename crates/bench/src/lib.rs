//! # lsm-bench — the experiment harness
//!
//! One binary per figure of the paper's evaluation (§V). Shared here:
//! geometry presets (paper scale and a laptop scale that preserves the
//! level-structure transitions), the seven-policy matrix, a tiny CLI
//! parser, and table/CSV reporting.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod report;
pub mod setup;

pub use args::Args;
pub use report::{Csv, Table};
pub use setup::{
    make_tree, policy_matrix, prepared_tree, ExperimentScale, PolicyCase, WorkloadKind,
};
