//! The [`CondensationMethod`] trait, the built-in methods the paper attacks
//! (DC-Graph, GCond, GCond-X, GC-SNTK) and the open, name-keyed condenser
//! registry the experiment harness dispatches through.

use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

use bgc_graph::{CondensedGraph, Graph, TaskSetting};
use bgc_registry::{Named, Registry};

use crate::config::CondensationConfig;
use crate::error::CondenseError;
use crate::matching::{GradientMatchingState, MatchingVariant};
use crate::sntk::condense_sntk;

/// A graph condensation method: maps a large graph `G` to a small synthetic
/// graph `S` such that GNNs trained on `S` approximate GNNs trained on `G`.
///
/// The trait is object-safe and `Send + Sync`, so methods can be registered
/// once (see [`register_condenser`]) and shared across the parallel
/// experiment grid.
pub trait CondensationMethod: Send + Sync {
    /// Display name used in result tables, canonical keys and the CLI.
    fn name(&self) -> &str;

    /// Runs condensation on `graph` with the given configuration.
    ///
    /// `graph` may already be its own working graph (see [`working_graph`]):
    /// on an inductive dataset the grid runner derives the training subgraph
    /// once and hands it to every stage.
    fn condense(
        &self,
        graph: &Graph,
        config: &CondensationConfig,
    ) -> Result<CondensedGraph, CondenseError>;

    /// The gradient-matching variant attacks can interleave with, if any.
    /// Methods returning `None` (kernel methods like GC-SNTK) are attacked by
    /// poisoning the graph first and condensing it afterwards.
    fn matching_variant(&self) -> Option<MatchingVariant> {
        None
    }

    /// Fast-fail capacity check run before expensive attack loops; GC-SNTK
    /// reports the paper's `OOM` condition here.
    fn check_capacity(
        &self,
        _graph: &Graph,
        _config: &CondensationConfig,
    ) -> Result<(), CondenseError> {
        Ok(())
    }
}

/// The four condensation methods of the paper's evaluation (Table II).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum CondensationKind {
    /// DC adapted to graphs (structure-free, raw features).
    DcGraph,
    /// GCond (learned synthetic structure).
    GCond,
    /// GCond-X (structure-free variant of GCond).
    GCondX,
    /// GC-SNTK (kernel ridge regression with a structure-based kernel).
    GcSntk,
}

impl CondensationKind {
    /// All four methods in the paper's order.
    pub fn all() -> [CondensationKind; 4] {
        [
            CondensationKind::DcGraph,
            CondensationKind::GCond,
            CondensationKind::GCondX,
            CondensationKind::GcSntk,
        ]
    }

    /// Display name used in result tables (the canonical registry spelling).
    pub fn name(&self) -> &'static str {
        match self {
            CondensationKind::DcGraph => "DC-Graph",
            CondensationKind::GCond => "GCond",
            CondensationKind::GCondX => "GCond-X",
            CondensationKind::GcSntk => "GC-SNTK",
        }
    }

    /// The gradient-matching variant backing this method, if any (GC-SNTK is
    /// kernel-based and has none).
    pub fn matching_variant(&self) -> Option<MatchingVariant> {
        match self {
            CondensationKind::DcGraph => Some(MatchingVariant::DcGraph),
            CondensationKind::GCond => Some(MatchingVariant::GCond),
            CondensationKind::GCondX => Some(MatchingVariant::GCondX),
            CondensationKind::GcSntk => None,
        }
    }

    /// Builds the method object.
    pub fn build(&self) -> Box<dyn CondensationMethod> {
        match self.matching_variant() {
            Some(variant) => Box::new(GradientMatchingMethod { variant }),
            None => Box::new(SntkMethod),
        }
    }
}

impl fmt::Display for CondensationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for CondensationKind {
    type Err = String;

    /// Parses the canonical table spelling case-insensitively, plus the
    /// punctuation-free aliases the CLI accepts (`gcondx`, `dcgraph`, ...).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let folded: String = s
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        CondensationKind::all()
            .into_iter()
            .find(|kind| {
                kind.name()
                    .chars()
                    .filter(|c| c.is_ascii_alphanumeric())
                    .collect::<String>()
                    .to_ascii_lowercase()
                    == folded
            })
            .ok_or_else(|| format!("unknown condensation method '{}'", s))
    }
}

/// Name handle of a registered condensation method — what experiment keys
/// store and the CLI parses.  Comparison and hashing use the exact spelling.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodId(String);

impl MethodId {
    /// Wraps a name verbatim.
    pub fn new(name: impl Into<String>) -> Self {
        MethodId(name.into())
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl FromStr for MethodId {
    type Err = std::convert::Infallible;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(s.into())
    }
}

impl From<&str> for MethodId {
    /// Adopts the canonical registry spelling when the name matches a
    /// registered condenser case-insensitively, or a built-in through the
    /// punctuation-free aliases of [`CondensationKind::from_str`] (`gcondx`,
    /// `dcgraph`, ...); keeps the input verbatim otherwise.
    fn from(s: &str) -> Self {
        let canonical = canonical_condenser_name(s).or_else(|| {
            s.parse::<CondensationKind>()
                .ok()
                .map(|k| k.name().to_string())
        });
        MethodId(canonical.unwrap_or_else(|| s.to_string()))
    }
}

impl From<String> for MethodId {
    fn from(s: String) -> Self {
        s.as_str().into()
    }
}

impl From<CondensationKind> for MethodId {
    fn from(kind: CondensationKind) -> Self {
        MethodId(kind.name().to_string())
    }
}

impl Named for dyn CondensationMethod {
    fn name(&self) -> &str {
        CondensationMethod::name(self)
    }
}

fn condenser_registry() -> &'static Registry<dyn CondensationMethod> {
    static REGISTRY: OnceLock<Registry<dyn CondensationMethod>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Registry::new(
            CondensationKind::all()
                .into_iter()
                .map(|kind| Arc::from(kind.build()))
                .collect(),
        )
    })
}

/// Registers a condensation method under its [`CondensationMethod::name`].
/// A method with the same name (case-insensitively) replaces the previous
/// entry, so tests can shadow built-ins; note that the artifact store keys
/// cells and stages by name, so run `bgc store clear` after shadowing a
/// built-in (or use an in-memory runner) to avoid being served the old
/// implementation's cached cells.
pub fn register_condenser(method: Arc<dyn CondensationMethod>) {
    condenser_registry().register(method);
}

/// Looks up a registered condenser by name (exact first, then
/// case-insensitive).
pub fn resolve_condenser(name: &str) -> Option<Arc<dyn CondensationMethod>> {
    condenser_registry().resolve(name)
}

/// Registered condenser names in registration order (built-ins first).
pub fn condenser_names() -> Vec<String> {
    condenser_registry().names()
}

fn canonical_condenser_name(name: &str) -> Option<String> {
    resolve_condenser(name).map(|m| m.name().to_string())
}

/// Selects the graph the condensation actually operates on: the full graph for
/// transductive datasets, the training subgraph for inductive ones (Table I).
///
/// A graph whose training split is already all of its nodes, in order, is
/// returned as it is, because its training subgraph would rebuild its data
/// bit for bit.  So the working graph of a working graph derives nothing,
/// and neither does that of a poisoned graph built on one (its trigger
/// nodes join the training split in order).
pub fn working_graph(graph: &Graph) -> Graph {
    let whole_split = graph.split.train.iter().copied().eq(0..graph.num_nodes());
    if graph.setting == TaskSetting::Inductive && !whole_split {
        graph.training_subgraph()
    } else {
        graph.clone()
    }
}

/// Gradient-matching based condensation (DC-Graph, GCond, GCond-X).
pub struct GradientMatchingMethod {
    variant: MatchingVariant,
}

impl GradientMatchingMethod {
    /// Creates the method for a specific matching variant.
    pub fn new(variant: MatchingVariant) -> Self {
        Self { variant }
    }
}

impl CondensationMethod for GradientMatchingMethod {
    fn name(&self) -> &str {
        self.variant.name()
    }

    fn condense(
        &self,
        graph: &Graph,
        config: &CondensationConfig,
    ) -> Result<CondensedGraph, CondenseError> {
        let work = working_graph(graph);
        if work.split.train.is_empty() {
            return Err(CondenseError::NoTrainingNodes);
        }
        let mut state = GradientMatchingState::new(&work, self.variant, config.clone());
        state.run(&work);
        Ok(state.to_condensed())
    }

    fn matching_variant(&self) -> Option<MatchingVariant> {
        Some(self.variant)
    }
}

/// GC-SNTK kernel ridge regression condensation.
pub struct SntkMethod;

impl CondensationMethod for SntkMethod {
    fn name(&self) -> &str {
        "GC-SNTK"
    }

    fn condense(
        &self,
        graph: &Graph,
        config: &CondensationConfig,
    ) -> Result<CondensedGraph, CondenseError> {
        let work = working_graph(graph);
        condense_sntk(&work, config)
    }

    fn check_capacity(
        &self,
        graph: &Graph,
        config: &CondensationConfig,
    ) -> Result<(), CondenseError> {
        if graph.split.train.len() > config.sntk_node_limit {
            return Err(CondenseError::OutOfMemory {
                nodes: graph.split.train.len(),
                limit: config.sntk_node_limit,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_graph::DatasetKind;
    use bgc_nn::{evaluate, train_on_condensed, AdjacencyRef, GnnArchitecture, TrainConfig};
    use bgc_tensor::init::rng_from_seed;

    #[test]
    fn registry_builds_all_methods() {
        for kind in CondensationKind::all() {
            let method = kind.build();
            assert_eq!(method.name(), kind.name());
            assert_eq!(method.matching_variant(), kind.matching_variant());
        }
    }

    #[test]
    fn registry_resolves_every_builtin_by_name() {
        for kind in CondensationKind::all() {
            let method = resolve_condenser(kind.name()).expect("builtin registered");
            assert_eq!(method.name(), kind.name());
            // Case-insensitive resolution adopts the canonical spelling.
            let lower = resolve_condenser(&kind.name().to_ascii_lowercase()).unwrap();
            assert_eq!(lower.name(), kind.name());
        }
        assert!(resolve_condenser("no-such-method").is_none());
        let names = condenser_names();
        for kind in CondensationKind::all() {
            assert!(names.iter().any(|n| n == kind.name()));
        }
    }

    #[test]
    fn kind_round_trips_through_display_and_from_str() {
        for kind in CondensationKind::all() {
            assert_eq!(kind.to_string().parse::<CondensationKind>(), Ok(kind));
            // CLI-friendly spellings.
            assert_eq!(
                kind.name().to_ascii_lowercase().parse::<CondensationKind>(),
                Ok(kind)
            );
        }
        assert_eq!(
            "gcondx".parse::<CondensationKind>(),
            Ok(CondensationKind::GCondX)
        );
        assert_eq!(
            "dc-graph".parse::<CondensationKind>(),
            Ok(CondensationKind::DcGraph)
        );
        assert!("huge".parse::<CondensationKind>().is_err());
    }

    #[test]
    fn method_ids_canonicalize_known_spellings() {
        assert_eq!(MethodId::from("gcond").as_str(), "GCond");
        assert_eq!(MethodId::from(CondensationKind::GcSntk).as_str(), "GC-SNTK");
        assert_eq!(MethodId::from("SomethingNew").as_str(), "SomethingNew");
        // Punctuation-free CLI aliases fold onto the built-in spellings.
        assert_eq!(MethodId::from("gcondx").as_str(), "GCond-X");
        assert_eq!(MethodId::from("dcgraph").as_str(), "DC-Graph");
        assert_eq!(MethodId::from("gcsntk").as_str(), "GC-SNTK");
    }

    #[test]
    fn sntk_capacity_check_reports_oom() {
        let graph = DatasetKind::Cora.load_small(2);
        let mut config = CondensationConfig::quick(0.1);
        config.sntk_node_limit = 1;
        let err = SntkMethod.check_capacity(&graph, &config);
        assert!(matches!(err, Err(CondenseError::OutOfMemory { .. })));
        config.sntk_node_limit = 20_000;
        assert!(SntkMethod.check_capacity(&graph, &config).is_ok());
        assert!(GradientMatchingMethod::new(MatchingVariant::GCond)
            .check_capacity(&graph, &config)
            .is_ok());
    }

    #[test]
    fn condensed_graph_trains_a_useful_gnn() {
        // End-to-end: condense small Cora with GCond-X, train a GCN on S, and
        // check the test accuracy clearly beats random guessing — the core
        // promise of graph condensation (Eq. 1).
        let graph = DatasetKind::Cora.load_small(4);
        let config = CondensationConfig::quick(0.3);
        let condensed = CondensationKind::GCondX
            .build()
            .condense(&graph, &config)
            .expect("condensation should succeed");
        assert!(condensed.num_nodes() < graph.split.train.len().max(8));

        let mut rng = rng_from_seed(0);
        let mut model =
            GnnArchitecture::Gcn.build(graph.num_features(), 32, graph.num_classes, 2, &mut rng);
        train_on_condensed(model.as_mut(), &condensed, &TrainConfig::quick());
        let adj = AdjacencyRef::from_graph(&graph);
        let acc = evaluate(
            model.as_ref(),
            &adj,
            &graph.features,
            &graph.labels,
            &graph.split.test,
        );
        let chance = 1.0 / graph.num_classes as f32;
        assert!(
            acc > 2.0 * chance,
            "test accuracy {} too close to chance {}",
            acc,
            chance
        );
    }

    /// The bits of everything condensation reads from a graph: features,
    /// adjacency, normalization, labels and split.
    fn data_bits(graph: &Graph) -> impl PartialEq + fmt::Debug {
        let csr = |m: &bgc_tensor::CsrMatrix| -> Vec<(usize, usize, u32)> {
            m.triplets()
                .into_iter()
                .map(|(r, c, v)| (r, c, v.to_bits()))
                .collect()
        };
        let features: Vec<u32> = graph.features.data().iter().map(|v| v.to_bits()).collect();
        (
            features,
            csr(&graph.adjacency),
            csr(&graph.normalized),
            graph.labels.clone(),
            graph.split.clone(),
        )
    }

    #[test]
    fn inductive_datasets_condense_on_the_training_subgraph() {
        for dataset in [DatasetKind::Flickr, DatasetKind::Reddit] {
            let graph = dataset.load_small(1);
            let work = working_graph(&graph);
            assert_eq!(work.num_nodes(), graph.split.train.len());
            // The working graph is its own working graph: it comes back as
            // it is, and re-deriving its training subgraph would change no
            // bit.  (`bgc-core` checks a poisoned graph built on it.)
            let again = working_graph(&work);
            assert!(Arc::ptr_eq(&again.features, &work.features), "{dataset:?}");
            assert!(Arc::ptr_eq(&again.normalized, &work.normalized));
            assert_eq!(data_bits(&work.training_subgraph()), data_bits(&work));
        }
        let transductive = DatasetKind::Cora.load_small(1);
        assert_eq!(
            working_graph(&transductive).num_nodes(),
            transductive.num_nodes()
        );
    }

    #[test]
    fn empty_training_split_is_an_error() {
        let mut graph = DatasetKind::Cora.load_small(2);
        graph.split.train.clear();
        let config = CondensationConfig::quick(0.1);
        let err = CondensationKind::GCond.build().condense(&graph, &config);
        assert!(matches!(err, Err(CondenseError::NoTrainingNodes)));
    }
}
