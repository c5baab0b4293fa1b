//! # bgc-store
//!
//! Crash-safe, content-addressed artifact store for the BGC reproduction.
//!
//! Stage results (clean condensations, attack artifacts, cell results) are
//! addressed by a hash of *everything that produced them*: dataset content
//! fingerprints, hyper-parameters, upstream artifact hashes, and a per-stage
//! code epoch bumped whenever the implementation changes — so invalidation
//! is precise instead of absent, and nothing stale is ever served.
//!
//! Robustness properties, by construction:
//!
//! * **Crash safety** — writes go to a pid-tagged temp file and are
//!   published by one atomic rename; every artifact carries a
//!   length-framed FNV-1a integrity digest, so truncation or corruption is
//!   detected on read and the file is quarantined and recomputed.
//! * **Multi-process single-flight** — concurrent `bgc` processes elect
//!   one computing holder per missing artifact via `O_EXCL` lock files;
//!   waiters block with a deadline and read the result.  Abandoned locks are recovered by pid probe (with an mtime lease as
//!   the portable fallback).
//! * **Graceful degradation** — a read-only, full or otherwise unavailable
//!   store downgrades to in-process compute with a warning; the store can
//!   accelerate a grid but never fail one.
//!
//! Fault points `store.read`, `store.write` and `store.lock` (registered in
//! [`bgc_runtime::fault::FAULT_POINTS`]) let `BGC_FAULTS` and the
//! kill-mid-persist harness drill every window.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes_without_reason
)]

mod admin;
mod key;
mod store;

pub use admin::StoreReport;
pub use key::{fnv1a64, KeyBuilder, StoreKey, KEY_VERSION};
pub use store::{
    default_store_root, parse_artifact, parse_artifact_canon, seal_artifact, Store, StoreConfig,
    StoreCounters, StoreRole, ARTIFACT_MAGIC, ARTIFACT_VERSION, STORE_DIR_ENV,
};
