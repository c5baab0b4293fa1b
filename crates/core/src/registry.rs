//! The open [`Attack`] trait and the name-keyed attack registry.
//!
//! Every attack of the paper (BGC, its random-selection ablation, Naive
//! Poison, GTA, DOORPING) is registered here as its [`AttackKind`], which
//! implements [`Attack`]; the experiment harness resolves attacks by name and
//! dispatches through the trait, so a new attack plugs in with
//! [`register_attack`] and never touches the evaluation crates.

use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

use bgc_condense::CondensationMethod;
use bgc_graph::{CondensedGraph, Graph};
use bgc_registry::{Named, Registry};

use crate::attack::BgcAttack;
use crate::baselines::naive_poison::NaivePoisonConfig;
use crate::baselines::{DoorpingAttack, GtaAttack, NaivePoisonAttack};
use crate::config::BgcConfig;
use crate::error::BgcError;
use crate::selector::LazySelector;
use crate::trigger::TriggerProvider;
use crate::variants::randomized_selection;

/// Output of the attack stage of one experiment cell: the poisoned condensed
/// graph plus the trigger provider used against victims at test time.  The
/// grid runner caches and shares these across cells, so everything inside is
/// immutable and behind `Arc`.
#[derive(Clone)]
pub struct AttackArtifacts {
    /// The poisoned condensed graph handed to the victim.
    pub condensed: Arc<CondensedGraph>,
    /// The trigger provider evaluated against the victim.
    pub provider: Arc<dyn TriggerProvider + Send + Sync>,
}

/// A backdoor attack on graph condensation.
///
/// Object-safe and `Send + Sync`: attacks are registered once and shared by
/// the parallel experiment grid.  The clean condensed reference is passed in
/// when [`Attack::needs_clean_reference`] says so (the Naive Poison baseline
/// injects into it); every other attack ignores it.  The selector output is
/// a lazy input that only attacks selecting representative nodes call.
pub trait Attack: Send + Sync {
    /// Display name used in result tables, canonical keys and the CLI.
    fn name(&self) -> &str;

    /// Whether the attack consumes the clean condensed reference.
    fn needs_clean_reference(&self) -> bool {
        false
    }

    /// Runs the attack against `method` on `graph` and returns the poisoned
    /// condensed graph plus the test-time trigger provider.
    ///
    /// `graph` may already be its own working graph (see
    /// [`bgc_condense::working_graph`]): on an inductive dataset the grid
    /// runner hands the attack the training subgraph.  `selector`, when
    /// given, returns [`crate::selector_representations`] of that working
    /// graph under `config`; `None` means the attack trains the selector
    /// itself if it needs one.
    fn run(
        &self,
        graph: &Graph,
        method: &dyn CondensationMethod,
        config: &BgcConfig,
        clean: Option<&CondensedGraph>,
        selector: Option<LazySelector<'_>>,
    ) -> Result<AttackArtifacts, BgcError>;
}

/// The five attacks of the paper's evaluation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// The paper's attack.
    Bgc,
    /// BGC with random poisoned-node selection (Figure 5).
    BgcRand,
    /// Naive direct injection into the condensed graph (Figure 1).
    NaivePoison,
    /// GTA adapted to condensation (Figure 4).
    Gta,
    /// DOORPING adapted to condensation (Figure 4).
    Doorping,
}

impl AttackKind {
    /// All five attacks in the paper's order.
    pub fn all() -> [AttackKind; 5] {
        [
            AttackKind::Bgc,
            AttackKind::BgcRand,
            AttackKind::NaivePoison,
            AttackKind::Gta,
            AttackKind::Doorping,
        ]
    }

    /// Display name used in tables and figures (the canonical registry
    /// spelling).
    pub fn name(&self) -> &'static str {
        match self {
            AttackKind::Bgc => "BGC",
            AttackKind::BgcRand => "BGC_Rand",
            AttackKind::NaivePoison => "NaivePoison",
            AttackKind::Gta => "GTA",
            AttackKind::Doorping => "DOORPING",
        }
    }
}

impl fmt::Display for AttackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for AttackKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AttackKind::all()
            .into_iter()
            .find(|kind| kind.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown attack '{}'", s))
    }
}

impl Attack for AttackKind {
    fn name(&self) -> &str {
        AttackKind::name(self)
    }

    fn needs_clean_reference(&self) -> bool {
        *self == AttackKind::NaivePoison
    }

    fn run(
        &self,
        graph: &Graph,
        method: &dyn CondensationMethod,
        config: &BgcConfig,
        clean: Option<&CondensedGraph>,
        selector: Option<LazySelector<'_>>,
    ) -> Result<AttackArtifacts, BgcError> {
        let (condensed, provider): (_, Arc<dyn TriggerProvider + Send + Sync>) = match self {
            AttackKind::Bgc => {
                let outcome = BgcAttack::new(config.clone()).run_with(graph, method, selector)?;
                (outcome.condensed, Arc::new(outcome.generator))
            }
            // Random selection never calls the selector.
            AttackKind::BgcRand => {
                let outcome = BgcAttack::new(randomized_selection(config))
                    .run_with(graph, method, selector)?;
                (outcome.condensed, Arc::new(outcome.generator))
            }
            AttackKind::NaivePoison => {
                let clean = clean.ok_or_else(|| BgcError::MissingCleanReference {
                    attack: self.name().to_string(),
                })?;
                let outcome = NaivePoisonAttack::new(NaivePoisonConfig {
                    target_class: config.target_class,
                    trigger_size: config.trigger_size,
                    poison_fraction: 0.3,
                    seed: config.seed,
                })
                .poison_condensed(clean, graph.num_features());
                (outcome.condensed, Arc::new(outcome.trigger))
            }
            AttackKind::Gta => {
                let outcome = GtaAttack::new(config.clone()).run_with(graph, method, selector)?;
                (outcome.condensed, Arc::new(outcome.generator))
            }
            AttackKind::Doorping => {
                let outcome =
                    DoorpingAttack::new(config.clone()).run_with(graph, method, selector)?;
                (outcome.condensed, Arc::new(outcome.trigger))
            }
        };
        Ok(AttackArtifacts {
            condensed: Arc::new(condensed),
            provider,
        })
    }
}

/// Name handle of a registered attack — what experiment keys store and the
/// CLI parses.  Comparison and hashing use the exact spelling.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttackId(String);

impl AttackId {
    /// Wraps a name verbatim.
    pub fn new(name: impl Into<String>) -> Self {
        AttackId(name.into())
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for AttackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl FromStr for AttackId {
    type Err = std::convert::Infallible;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(s.into())
    }
}

impl From<&str> for AttackId {
    /// Adopts the canonical registry spelling when the name matches a
    /// registered attack case-insensitively; keeps the input otherwise.
    fn from(s: &str) -> Self {
        let canonical = resolve_attack(s).map(|a| a.name().to_string());
        AttackId(canonical.unwrap_or_else(|| s.to_string()))
    }
}

impl From<String> for AttackId {
    fn from(s: String) -> Self {
        s.as_str().into()
    }
}

impl From<AttackKind> for AttackId {
    fn from(kind: AttackKind) -> Self {
        AttackId(kind.name().to_string())
    }
}

impl Named for dyn Attack {
    fn name(&self) -> &str {
        Attack::name(self)
    }
}

fn attack_registry() -> &'static Registry<dyn Attack> {
    static REGISTRY: OnceLock<Registry<dyn Attack>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Registry::new(
            AttackKind::all()
                .into_iter()
                .map(|kind| Arc::new(kind) as Arc<dyn Attack>)
                .collect(),
        )
    })
}

/// Registers an attack under its [`Attack::name`].  An attack with the same
/// name (case-insensitively) replaces the previous entry, so tests can shadow
/// built-ins; note that the artifact store keys cells and stages by name,
/// so run `bgc store clear` after shadowing a built-in (or use an
/// in-memory runner) to avoid being served the old implementation's cached
/// cells.
pub fn register_attack(attack: Arc<dyn Attack>) {
    attack_registry().register(attack);
}

/// Looks up a registered attack by name (exact first, then
/// case-insensitive).
pub fn resolve_attack(name: &str) -> Option<Arc<dyn Attack>> {
    attack_registry().resolve(name)
}

/// Registered attack names in registration order (built-ins first).
pub fn attack_names() -> Vec<String> {
    attack_registry().names()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::SelectorOutput;

    #[test]
    fn every_builtin_attack_resolves_by_name() {
        for kind in AttackKind::all() {
            let attack = resolve_attack(kind.name()).expect("builtin registered");
            assert_eq!(attack.name(), kind.name());
            let lower = resolve_attack(&kind.name().to_ascii_lowercase()).unwrap();
            assert_eq!(lower.name(), kind.name());
        }
        assert!(resolve_attack("no-such-attack").is_none());
        let names = attack_names();
        for kind in AttackKind::all() {
            assert!(names.iter().any(|n| n == kind.name()));
        }
    }

    #[test]
    fn only_naive_poison_needs_the_clean_reference() {
        for kind in AttackKind::all() {
            let attack = resolve_attack(kind.name()).unwrap();
            assert_eq!(
                attack.needs_clean_reference(),
                kind == AttackKind::NaivePoison
            );
        }
    }

    #[test]
    fn attack_kind_round_trips_through_display_and_from_str() {
        for kind in AttackKind::all() {
            assert_eq!(kind.to_string().parse::<AttackKind>(), Ok(kind));
            assert_eq!(
                kind.name().to_ascii_lowercase().parse::<AttackKind>(),
                Ok(kind)
            );
        }
        assert!("Ghost".parse::<AttackKind>().is_err());
    }

    #[test]
    fn attack_ids_canonicalize_known_spellings() {
        assert_eq!(AttackId::from("bgc").as_str(), "BGC");
        assert_eq!(AttackId::from("doorping").as_str(), "DOORPING");
        assert_eq!(AttackId::from(AttackKind::BgcRand).as_str(), "BGC_Rand");
        assert_eq!(AttackId::from("SomethingNew").as_str(), "SomethingNew");
    }

    #[test]
    fn random_selection_and_naive_poison_never_call_the_selector() {
        let graph = bgc_graph::DatasetKind::Cora.load_small(3);
        let mut config = BgcConfig::quick();
        config.condensation.outer_epochs = 2;
        let method = bgc_condense::CondensationKind::GCondX.build();
        let clean = method.condense(&graph, &config.condensation).unwrap();
        let never = || -> Arc<SelectorOutput> { panic!("the selector was called") };
        for kind in [AttackKind::BgcRand, AttackKind::NaivePoison] {
            let result = kind.run(&graph, method.as_ref(), &config, Some(&clean), Some(&never));
            assert!(result.is_ok(), "{kind:?}");
        }
    }

    #[test]
    fn naive_poison_without_clean_reference_is_a_typed_error() {
        let graph = bgc_graph::DatasetKind::Cora.load_small(3);
        let attack = resolve_attack("NaivePoison").unwrap();
        let method = bgc_condense::CondensationKind::GCondX.build();
        let result = attack.run(&graph, method.as_ref(), &BgcConfig::quick(), None, None);
        assert!(matches!(
            result,
            Err(BgcError::MissingCleanReference { .. })
        ));
    }
}
