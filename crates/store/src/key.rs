//! Content-addressed store keys.
//!
//! A [`StoreKey`] names an artifact by *what produced it*: the stage name, a
//! per-stage code epoch (a constant the owning crate bumps when its
//! implementation changes), and every input the stage consumed — dataset
//! fingerprints, hyper-parameters, and the hashes of upstream artifacts.
//! The canonical key string is human-readable and stored verbatim inside the
//! artifact file, so a hash collision is detected on read instead of serving
//! the wrong bytes.

use std::fmt;

/// Version prefix of every key canon; bump when the key grammar itself
/// changes (this invalidates the whole store at once).
pub const KEY_VERSION: u64 = 1;

/// FNV-1a (64-bit) — the workspace-standard content hash, used for artifact
/// addresses and integrity digests.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A fully-derived artifact key: stage, canonical input description, and the
/// content hash addressing the artifact on disk.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StoreKey {
    stage: String,
    canon: String,
    hash: u64,
}

impl StoreKey {
    /// The stage that produces this artifact (e.g. `clean`, `attack`).
    pub fn stage(&self) -> &str {
        &self.stage
    }

    /// The canonical, human-readable description of every input.
    pub fn canon(&self) -> &str {
        &self.canon
    }

    /// The 64-bit content address (FNV-1a of the canon).
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// On-disk file name of the artifact this key addresses.
    pub fn file_name(&self) -> String {
        format!("{:016x}.art", self.hash)
    }
}

impl fmt::Display for StoreKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.canon)
    }
}

/// Builds a [`StoreKey`] field by field.
///
/// Fields appear in the canon in insertion order, so callers must add them
/// deterministically (the runner adds them in a fixed textual order).
#[derive(Clone, Debug)]
pub struct KeyBuilder {
    stage: String,
    canon: String,
}

impl KeyBuilder {
    /// Starts a key for `stage` at the given code epoch.  The epoch is a
    /// constant owned by the crate implementing the stage; bumping it
    /// invalidates exactly this stage's artifacts (and, through
    /// [`KeyBuilder::upstream`], everything derived from them).
    pub fn new(stage: &str, code_epoch: u32) -> Self {
        debug_assert!(
            !stage.contains(['|', '\n']),
            "stage names must be pipe- and newline-free"
        );
        Self {
            stage: stage.to_string(),
            canon: format!("k{}|{}|ep={}", KEY_VERSION, stage, code_epoch),
        }
    }

    /// Adds one named input to the key.
    pub fn field(mut self, name: &str, value: impl fmt::Display) -> Self {
        let value = value.to_string();
        debug_assert!(
            !name.contains(['|', '\n', '=']) && !value.contains('\n'),
            "key fields must be newline-free (name additionally pipe/=-free)"
        );
        self.canon.push('|');
        self.canon.push_str(name);
        self.canon.push('=');
        self.canon.push_str(&value);
        self
    }

    /// Adds a 64-bit content hash input (dataset fingerprints, config
    /// digests) in the canonical 16-hex-digit form.
    pub fn hash_field(self, name: &str, value: u64) -> Self {
        self.field(name, format_args!("{:016x}", value))
    }

    /// Records a dependency on an upstream artifact: the upstream key's hash
    /// becomes part of this key, so invalidating the upstream (epoch bump or
    /// input change) transitively invalidates this artifact.
    pub fn upstream(self, name: &str, key: &StoreKey) -> Self {
        let field = format!("up.{}", name);
        self.hash_field(&field, key.hash())
    }

    /// Finalizes the key.
    pub fn build(self) -> StoreKey {
        let hash = fnv1a64(self.canon.as_bytes());
        StoreKey {
            stage: self.stage,
            canon: self.canon,
            hash,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_deterministic_and_canonical() {
        let a = KeyBuilder::new("clean", 1)
            .field("dataset", "cora")
            .hash_field("graph", 0xabcd)
            .build();
        let b = KeyBuilder::new("clean", 1)
            .field("dataset", "cora")
            .hash_field("graph", 0xabcd)
            .build();
        assert_eq!(a, b);
        assert_eq!(
            a.canon(),
            "k1|clean|ep=1|dataset=cora|graph=000000000000abcd"
        );
        assert_eq!(a.stage(), "clean");
        assert_eq!(a.file_name(), format!("{:016x}.art", a.hash()));
    }

    #[test]
    fn epoch_and_inputs_change_the_address() {
        let base = KeyBuilder::new("clean", 1).field("dataset", "cora").build();
        let bumped = KeyBuilder::new("clean", 2).field("dataset", "cora").build();
        let other = KeyBuilder::new("clean", 1)
            .field("dataset", "citeseer")
            .build();
        assert_ne!(base.hash(), bumped.hash());
        assert_ne!(base.hash(), other.hash());
    }

    #[test]
    fn upstream_hashes_propagate_invalidation() {
        let up_a = KeyBuilder::new("clean", 1).field("dataset", "cora").build();
        let up_b = KeyBuilder::new("clean", 2).field("dataset", "cora").build();
        let down_a = KeyBuilder::new("attack", 1)
            .upstream("clean", &up_a)
            .build();
        let down_b = KeyBuilder::new("attack", 1)
            .upstream("clean", &up_b)
            .build();
        assert_ne!(down_a.hash(), down_b.hash());
    }
}
