//! # bgc-eval
//!
//! Experiment harness for the Rust reproduction of *"Backdoor Graph
//! Condensation"* (ICDE 2025): the CTA/ASR evaluation protocol of Section V,
//! quick/paper experiment scales, the typed [`Experiment`] builder, and one
//! regenerator function per table and figure of the evaluation section
//! (consumed by the `bgc` CLI in `bgc-bench`).
//!
//! Attacks, condensation methods and defenses are resolved by name from the
//! open registries in `bgc-core`, `bgc-condense` and `bgc-defense` and driven
//! through trait objects — registering a new one runs it through the grid
//! without touching this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes_without_reason
)]

pub mod artifact_codec;
pub mod experiment;
pub mod experiments;
pub mod overrides;
pub mod paper;
pub mod protocol;
pub mod report_json;
pub mod runner;
pub mod scale;
pub mod tables;

pub use bgc_core::BgcError;
pub use bgc_runtime::{CancelToken, FaultAction, FaultPlan, FaultSpec};
pub use experiment::{Experiment, ExperimentBuilder};
pub use overrides::{BudgetOverride, CellOverrides};
pub use protocol::{attack_stage, clean_stage, AttackArtifacts, AttackKind, RunMetrics};
pub use runner::{
    enter_wave, CellGroup, CellKey, CellOutcome, CellResult, CellStatus, CodeEpochs, EvalKind,
    GridReport, Runner, RunnerStats, WaveCtx, WaveObserver, WaveScope, DEFAULT_BASE_SEED,
    EVAL_CODE_EPOCH,
};
pub use scale::ExperimentScale;
pub use tables::ExperimentReport;
