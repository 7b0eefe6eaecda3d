//! # lsm-bench — the experiment harness
//!
//! One binary per figure of the paper's evaluation (§V), plus ablations,
//! extensions and the observability tools. Shared here: the §V protocol
//! in [`setup`] — build a tree ([`make_tree`]), bring it to steady state
//! ([`steady_state`]), learn and measure ([`measure`]) — with the geometry
//! presets, the seven-policy matrix and the workload names; a tiny CLI
//! parser; and [`Table`], whose one set of rows is both the printed table
//! and the CSV under `results/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod report;
pub mod setup;

pub use args::Args;
pub use report::Table;
pub use setup::{
    device_blocks, make_tree, measure, policy_matrix, space_overhead, steady_state, workloads_flag,
    ExperimentScale, PolicyCase, WorkloadKind,
};
