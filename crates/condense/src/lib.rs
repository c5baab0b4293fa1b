//! # bgc-condense
//!
//! Graph condensation substrate for the Rust reproduction of *"Backdoor Graph
//! Condensation"* (ICDE 2025): the four condensation methods the paper
//! attacks — DC-Graph, GCond, GCond-X (gradient matching, Eq. 6) and GC-SNTK
//! (kernel ridge regression) — plus the re-entrant gradient-matching state
//! machine that the BGC attack drives with a poisoned graph (Algorithm 1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes_without_reason
)]

/// Code epoch of the condensation implementations.  The artifact store
/// mixes this into the keys of clean and poisoned condensation artifacts;
/// bump it when any condensation method, the matching state machine or the
/// structure generator changes numerical behaviour, so stored condensations
/// from the old implementation are invalidated precisely.
pub const CONDENSE_CODE_EPOCH: u32 = 1;

pub mod config;
pub mod error;
pub mod labels;
pub mod matching;
pub mod methods;
pub mod sntk;
pub mod structure;

pub use config::CondensationConfig;
pub use error::CondenseError;
pub use matching::{GradientMatchingState, MatchingVariant};
pub use methods::{
    condenser_names, register_condenser, resolve_condenser, working_graph, CondensationKind,
    CondensationMethod, MethodId,
};
pub use sntk::{condense_sntk, sntk_kernel, SntkPredictor};
pub use structure::StructureGenerator;
