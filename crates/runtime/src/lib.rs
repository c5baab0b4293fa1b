//! # bgc-runtime
//!
//! Fault-tolerance substrate shared by every execution layer of the BGC
//! reproduction: cooperative cancellation with deadlines ([`cancel`]),
//! deterministic fault injection ([`fault`]) and poison-recovering lock
//! helpers ([`lock`]).
//!
//! Both facilities are *scoped*: the experiment runner enters a scope around
//! one cell's execution on the worker thread, and the long loops beneath it
//! (trainer epochs, condensation outer epochs) call the free functions
//! [`checkpoint`] and [`fault::fire`] without threading any handle through
//! their signatures.  Outside a scope both are no-ops, so library users that
//! never opt in pay one thread-local read per epoch and nothing else.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes_without_reason
)]

pub mod cancel;
pub mod fault;
pub mod lock;

pub use cancel::{checkpoint, CancelScope, CancelToken, CancelUnwind};
pub use fault::{FaultAction, FaultPlan, FaultScope, FaultSpec, FAULT_POINTS};
pub use lock::{relock, relock_read, relock_write};
