//! Shared machinery of the workspace's open, name-keyed registries.
//!
//! The attack (`bgc-core`), condenser (`bgc-condense`) and defense
//! (`bgc-defense`) registries all expose the same contract — register a
//! trait object under its display name, resolve exactly then
//! case-insensitively, list in registration order, last registration wins —
//! and experiment cache keys depend on those semantics staying identical
//! across the three. [`Registry`] pins them in one place; each crate wraps
//! one `Registry<dyn Trait>` in a `OnceLock` seeded with its built-ins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes_without_reason
)]

use std::sync::{Arc, RwLock};

use bgc_runtime::{relock_read, relock_write};

/// Anything registrable under a display name.
pub trait Named {
    /// Display name used in result tables, canonical keys and the CLI.
    fn name(&self) -> &str;
}

/// A name-keyed collection of shared trait objects.
///
/// Invariants shared by every workspace registry:
///
/// * names are unique **case-insensitively**; registering a name that is
///   already taken (in any casing) replaces the previous entry, so tests can
///   shadow built-ins;
/// * resolution tries the exact spelling first, then falls back to a
///   case-insensitive match, and returns the entry's canonical spelling via
///   [`Named::name`];
/// * listing preserves registration order (built-ins first).
pub struct Registry<T: ?Sized + Named + Send + Sync> {
    slots: RwLock<Vec<Arc<T>>>,
}

impl<T: ?Sized + Named + Send + Sync> Registry<T> {
    /// A registry seeded with the built-in entries.
    pub fn new(builtins: Vec<Arc<T>>) -> Self {
        Self {
            slots: RwLock::new(builtins),
        }
    }

    /// Registers `entry` under its [`Named::name`], replacing any entry with
    /// the same name (case-insensitively).
    ///
    /// Shadowing does **not** invalidate previously persisted experiment
    /// results: the artifact store keys cells and stages by name, so after
    /// replacing a built-in, run `bgc store clear` (or use an in-memory
    /// runner) to avoid being served the old implementation's cached cells.
    pub fn register(&self, entry: Arc<T>) {
        let mut slots = relock_write(&self.slots);
        slots.retain(|e| !e.name().eq_ignore_ascii_case(entry.name()));
        slots.push(entry);
    }

    /// Looks up an entry by name (exact first, then case-insensitive).
    pub fn resolve(&self, name: &str) -> Option<Arc<T>> {
        let slots = relock_read(&self.slots);
        slots
            .iter()
            .find(|e| e.name() == name)
            .or_else(|| slots.iter().find(|e| e.name().eq_ignore_ascii_case(name)))
            .cloned()
    }

    /// Registered names in registration order (built-ins first).
    pub fn names(&self) -> Vec<String> {
        relock_read(&self.slots)
            .iter()
            .map(|e| e.name().to_string())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Entry(&'static str);

    impl Named for Entry {
        fn name(&self) -> &str {
            self.0
        }
    }

    #[test]
    fn resolution_is_exact_then_case_insensitive() {
        let registry = Registry::new(vec![Arc::new(Entry("Alpha")), Arc::new(Entry("beta"))]);
        assert_eq!(registry.resolve("Alpha").unwrap().name(), "Alpha");
        assert_eq!(registry.resolve("ALPHA").unwrap().name(), "Alpha");
        assert_eq!(registry.resolve("Beta").unwrap().name(), "beta");
        assert!(registry.resolve("gamma").is_none());
        assert_eq!(registry.names(), vec!["Alpha", "beta"]);
    }

    #[test]
    fn registration_is_last_wins_case_insensitively() {
        let registry = Registry::new(vec![Arc::new(Entry("Alpha"))]);
        registry.register(Arc::new(Entry("ALPHA")));
        assert_eq!(registry.names(), vec!["ALPHA"]);
        assert_eq!(registry.resolve("alpha").unwrap().name(), "ALPHA");
        registry.register(Arc::new(Entry("Gamma")));
        assert_eq!(registry.names(), vec!["ALPHA", "Gamma"]);
    }
}
