//! The `bgc` CLI implementation ([`cli`]) behind the single `bgc` binary,
//! and the thread-scaling helpers of the benches ([`scaling`]).
//!
//! Every invocation accepts `--scale quick|paper|large` (default `quick`)
//! and `--full` (include all four datasets in sweeps at quick scale).
//! Reports execute their experiment cells through a shared grid
//! [`Runner`](bgc_eval::Runner), which parallelizes independent cells,
//! shares attack/condensation stages between overlapping cells and resumes
//! completed cells from the artifact store (`target/store/`, or
//! `BGC_STORE_DIR`).

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes_without_reason
)]

pub mod cli;
pub mod scaling;

pub use cli::{CliError, HELP};
