//! The open [`Defense`] trait and the name-keyed defense registry.
//!
//! A defense can hook into the evaluation protocol at two points:
//!
//! * **dataset level** — [`Defense::sanitize`] transforms the condensed graph
//!   before the victim trains on it (Prune);
//! * **model level** — [`Defense::predict`] overrides inference so every
//!   prediction goes through the defense (Randsmooth's majority vote).
//!
//! The experiment harness resolves defenses by name and drives both hooks
//! generically, so a new defense plugs in with [`register_defense`] and never
//! touches the evaluation crates.

use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

use bgc_graph::CondensedGraph;
use bgc_nn::{AdjacencyRef, GnnModel};
use bgc_registry::{Named, Registry};
use bgc_tensor::Matrix;

use crate::prune::{prune_defense, PruneConfig};
use crate::randsmooth::{randsmooth_predict, RandsmoothConfig};

/// A defense against backdoored condensed graphs (Table IV).
pub trait Defense: Send + Sync {
    /// Display name used in result tables, canonical keys and the CLI.
    fn name(&self) -> &str;

    /// Dataset-level hook: transforms the condensed graph before victim
    /// training.  The default is the identity (model-level defenses).
    fn sanitize(&self, condensed: &CondensedGraph) -> CondensedGraph {
        condensed.clone()
    }

    /// Model-level hook: predicts labels for every node of `(adj, features)`
    /// through the defense, or `None` to use the model's plain forward pass
    /// (dataset-level defenses).
    fn predict(
        &self,
        _model: &dyn GnnModel,
        _adj: &AdjacencyRef,
        _features: &Matrix,
        _num_classes: usize,
    ) -> Option<Vec<usize>> {
        None
    }
}

/// Name handle of a registered defense — what experiment keys store and the
/// CLI parses.  Comparison and hashing use the exact spelling.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DefenseId(String);

impl DefenseId {
    /// Wraps a name verbatim.
    pub fn new(name: impl Into<String>) -> Self {
        DefenseId(name.into())
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for DefenseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl FromStr for DefenseId {
    type Err = std::convert::Infallible;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(s.into())
    }
}

impl From<&str> for DefenseId {
    /// Adopts the canonical registry spelling when the name matches a
    /// registered defense case-insensitively; keeps the input otherwise.
    fn from(s: &str) -> Self {
        let canonical = resolve_defense(s).map(|d| d.name().to_string());
        DefenseId(canonical.unwrap_or_else(|| s.to_string()))
    }
}

impl From<String> for DefenseId {
    fn from(s: String) -> Self {
        s.as_str().into()
    }
}

impl Named for dyn Defense {
    fn name(&self) -> &str {
        Defense::name(self)
    }
}

fn defense_registry() -> &'static Registry<dyn Defense> {
    static REGISTRY: OnceLock<Registry<dyn Defense>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Registry::new(vec![
            Arc::new(PruneDefense::default()) as Arc<dyn Defense>,
            Arc::new(RandsmoothDefense::default()),
        ])
    })
}

/// Registers a defense under its [`Defense::name`].  A defense with the same
/// name (case-insensitively) replaces the previous entry, so tests can shadow
/// built-ins; note that the artifact store keys cells by name, so run
/// `bgc store clear` after shadowing a built-in (or use an in-memory
/// runner) to avoid being served the old implementation's cached cells.
/// The name `standard` is reserved for the undefended evaluation mode and
/// is rejected.
pub fn register_defense(defense: Arc<dyn Defense>) {
    assert!(
        !defense.name().eq_ignore_ascii_case("standard"),
        "the defense name 'standard' is reserved for the undefended evaluation mode"
    );
    defense_registry().register(defense);
}

/// Looks up a registered defense by name (exact first, then
/// case-insensitive).
pub fn resolve_defense(name: &str) -> Option<Arc<dyn Defense>> {
    defense_registry().resolve(name)
}

/// Registered defense names in registration order (built-ins first).
pub fn defense_names() -> Vec<String> {
    defense_registry().names()
}

/// The Prune defense as a registry entry: drops the lowest-similarity edges
/// of the condensed graph before victim training.
#[derive(Default)]
pub struct PruneDefense {
    /// Pruning configuration.
    pub config: PruneConfig,
}

impl Defense for PruneDefense {
    fn name(&self) -> &str {
        "prune"
    }

    fn sanitize(&self, condensed: &CondensedGraph) -> CondensedGraph {
        prune_defense(condensed, &self.config).condensed
    }
}

/// The Randsmooth defense as a registry entry: majority-vote predictions
/// over randomly sub-sampled graphs.
#[derive(Default)]
pub struct RandsmoothDefense {
    /// Smoothing configuration.
    pub config: RandsmoothConfig,
}

impl Defense for RandsmoothDefense {
    fn name(&self) -> &str {
        "randsmooth"
    }

    fn predict(
        &self,
        model: &dyn GnnModel,
        adj: &AdjacencyRef,
        features: &Matrix,
        num_classes: usize,
    ) -> Option<Vec<usize>> {
        Some(randsmooth_predict(
            model,
            adj,
            features,
            num_classes,
            &self.config,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_defenses_resolve_by_name() {
        for name in ["prune", "randsmooth"] {
            let defense = resolve_defense(name).expect("builtin registered");
            assert_eq!(defense.name(), name);
            let upper = resolve_defense(&name.to_ascii_uppercase()).unwrap();
            assert_eq!(upper.name(), name);
        }
        assert!(resolve_defense("no-such-defense").is_none());
        let names = defense_names();
        assert!(names.iter().any(|n| n == "prune"));
        assert!(names.iter().any(|n| n == "randsmooth"));
    }

    #[test]
    fn defense_ids_canonicalize_known_spellings() {
        assert_eq!(DefenseId::from("PRUNE").as_str(), "prune");
        assert_eq!(DefenseId::from("Randsmooth").as_str(), "randsmooth");
        assert_eq!(DefenseId::from("novel").as_str(), "novel");
    }

    #[test]
    fn prune_sanitizes_and_randsmooth_predicts() {
        use bgc_tensor::init::{randn, rng_from_seed};
        let mut rng = rng_from_seed(5);
        let features = randn(6, 4, 0.0, 1.0, &mut rng);
        let mut adjacency = bgc_tensor::Matrix::zeros(6, 6);
        for r in 0..6 {
            for c in (r + 1)..6 {
                adjacency.set(r, c, 1.0);
                adjacency.set(c, r, 1.0);
            }
        }
        let condensed = CondensedGraph::new(features, adjacency, vec![0; 6], 1);
        let prune = resolve_defense("prune").unwrap();
        let sanitized = prune.sanitize(&condensed);
        let before = condensed
            .adjacency
            .data()
            .iter()
            .filter(|&&v| v != 0.0)
            .count();
        let after = sanitized
            .adjacency
            .data()
            .iter()
            .filter(|&&v| v != 0.0)
            .count();
        assert!(
            after < before,
            "prune must drop edges ({} -> {})",
            before,
            after
        );
        // Randsmooth leaves the graph alone (model-level defense).
        let randsmooth = resolve_defense("randsmooth").unwrap();
        let same = randsmooth.sanitize(&condensed);
        assert!(same.features.approx_eq(&condensed.features, 0.0));
    }
}
