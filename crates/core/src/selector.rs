//! Poisoned-node selection (Section IV-B, Eq. 7–9).
//!
//! A selector GCN `f_sel` is trained on the original graph; its penultimate
//! representations are clustered per class with K-means, and nodes are scored
//! with `m(v) = ||h_v - h_centroid||_2 + lambda * deg(v)`, balancing
//! representativeness against the utility damage of relabelling high-degree
//! nodes.  The top-n nodes per cluster are selected, with
//! `n = Delta_P / ((C - 1) * K)`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use bgc_graph::Graph;
use bgc_nn::models::Gcn;
use bgc_nn::{train_with_plan, AdjacencyRef, TrainConfig, TrainingPlan};
use bgc_tensor::init::rng_from_seed;
use bgc_tensor::{Matrix, Tape};

use crate::config::{BgcConfig, SelectionStrategy};
use crate::kmeans::kmeans;

/// Outcome of poisoned-node selection.
#[derive(Clone, Debug)]
pub struct SelectionResult {
    /// Selected poisoned nodes `V_P` (indices into the graph).
    pub poisoned_nodes: Vec<usize>,
    /// Per-node selection scores (lower index = selected earlier).
    pub scores: Vec<f32>,
    /// Validation-style accuracy of the selector GCN on the training split
    /// (diagnostic only).
    pub selector_train_accuracy: f32,
}

/// What the selector GCN learns on a graph.
#[derive(Debug)]
pub struct SelectorOutput {
    /// Hidden representation of every node.
    pub hidden: Matrix,
    /// Accuracy of the selector GCN on the training split (diagnostic only).
    pub train_accuracy: f32,
}

/// The selector output as an attack receives it: a lazy input that an
/// attack calls only when it selects representative nodes, and that returns
/// [`selector_representations`] of the graph it selects on.
pub type LazySelector<'a> = &'a dyn Fn() -> Arc<SelectorOutput>;

/// Trains the selector GCN on `graph` and returns its output.
///
/// The output is a deterministic function of the graph and of `(seed,
/// hidden_dim, selector_epochs, training_plan)`.  Every call trains afresh;
/// the grid runner keeps one output per set of these inputs as its select
/// stage and hands it to the attacks as a [`LazySelector`].
pub fn selector_representations(graph: &Graph, config: &BgcConfig) -> SelectorOutput {
    // The selector GCN's depth is fixed at 2: adapt a shared sampled plan
    // to it instead of requiring every caller to match the fanout count.
    let plan = match &config.training_plan {
        TrainingPlan::FullBatch => TrainingPlan::FullBatch,
        TrainingPlan::Sampled(sampled) => TrainingPlan::Sampled(sampled.with_depth(2)),
    };
    let adj = AdjacencyRef::from_graph(graph);
    let mut rng = rng_from_seed(config.seed ^ 0x5e1e);
    let mut gcn = Gcn::new(
        graph.num_features(),
        config.hidden_dim,
        graph.num_classes,
        2,
        &mut rng,
    );
    let train_cfg = TrainConfig {
        epochs: config.selector_epochs,
        patience: None,
        ..TrainConfig::default()
    };
    // The plan decides how the selector trains on the (possibly paper-scale)
    // original graph; `FullBatch` is byte-identical to the historical
    // `train_node_classifier` call.
    train_with_plan(&mut gcn, graph, &train_cfg, &plan, config.seed ^ 0x3a1f);
    // One full-graph forward pass yields both the hidden representation and
    // the logits the training accuracy is read from.
    let mut tape = Tape::new();
    let x = tape.const_leaf(graph.features.clone());
    let (pass, hidden) = gcn.forward_with_hidden(&mut tape, &adj, x);
    let preds = tape.value_ref(pass.logits).argmax_rows();
    let train_labels: Vec<usize> = graph.labels_of(&graph.split.train);
    let train_preds: Vec<usize> = graph.split.train.iter().map(|&i| preds[i]).collect();
    SelectorOutput {
        hidden: tape.value_ref(hidden).clone(),
        train_accuracy: bgc_nn::accuracy(&train_preds, &train_labels),
    }
}

/// Selects the poisoned node set `V_P` according to the configured strategy.
///
/// Nodes of the target class are never selected (they already carry the target
/// label), matching the `C - 1` term of the budget formula.
pub fn select_poisoned_nodes(graph: &Graph, config: &BgcConfig) -> SelectionResult {
    select_with(graph, config, None)
}

/// [`select_poisoned_nodes`] with the selector output supplied by
/// `selector`, which only representative and directed selection call;
/// `None` trains the selector in place.
pub(crate) fn select_with(
    graph: &Graph,
    config: &BgcConfig,
    selector: Option<LazySelector<'_>>,
) -> SelectionResult {
    let budget = config
        .poison_budget
        .resolve(graph.split.train.len())
        .min(graph.split.train.len());
    let source_class = match config.selection {
        SelectionStrategy::Random => return random_selection(graph, config, budget),
        SelectionStrategy::Representative => None,
        SelectionStrategy::DirectedFrom(source) => Some(source),
    };
    let output = match selector {
        Some(selector) => selector(),
        None => Arc::new(selector_representations(graph, config)),
    };
    representative_selection(graph, config, budget, source_class, &output)
}

fn random_selection(graph: &Graph, config: &BgcConfig, budget: usize) -> SelectionResult {
    let mut rng = rng_from_seed(config.seed ^ xrand_seed());
    let candidates: Vec<usize> = graph
        .split
        .train
        .iter()
        .copied()
        .filter(|&i| graph.labels[i] != config.target_class)
        .collect();
    let mut chosen = Vec::new();
    let mut pool = candidates;
    while chosen.len() < budget && !pool.is_empty() {
        let idx = rng.gen_range(0..pool.len());
        chosen.push(pool.swap_remove(idx));
    }
    SelectionResult {
        poisoned_nodes: chosen,
        scores: Vec::new(),
        selector_train_accuracy: 0.0,
    }
}

const fn xrand_seed() -> u64 {
    0x7a6d
}

fn representative_selection(
    graph: &Graph,
    config: &BgcConfig,
    budget: usize,
    source_class: Option<usize>,
    selector: &SelectorOutput,
) -> SelectionResult {
    let hidden = &selector.hidden;
    let degrees = graph.degrees();
    let mut rng: StdRng = rng_from_seed(config.seed ^ 0x6b6d);

    // Classes eligible for poisoning.
    let classes: Vec<usize> = match source_class {
        Some(c) => vec![c],
        None => (0..graph.num_classes)
            .filter(|&c| c != config.target_class)
            .collect(),
    };
    assert!(
        !classes.is_empty(),
        "no class is eligible for poisoning (check target/source classes)"
    );
    let k = config.kmeans_clusters.max(1);
    // n = Delta_P / ((C - 1) * K), at least 1 (Section IV-B).
    let per_cluster = (budget as f32 / (classes.len() * k) as f32).ceil() as usize;
    let per_cluster = per_cluster.max(1);

    let mut scored: Vec<(f32, usize)> = Vec::new();
    for &class in &classes {
        let members: Vec<usize> = graph
            .split
            .train
            .iter()
            .copied()
            .filter(|&i| graph.labels[i] == class)
            .collect();
        if members.is_empty() {
            continue;
        }
        let class_hidden = hidden.select_rows(&members);
        let clustering = kmeans(&class_hidden, k, 50, &mut rng);
        for cluster in 0..clustering.centroids.rows() {
            let mut cluster_scores: Vec<(f32, usize)> = clustering
                .members(cluster)
                .into_iter()
                .map(|local| {
                    let node = members[local];
                    let dist = clustering.distance_to_centroid(&class_hidden, local);
                    let score = dist + config.selection_lambda * degrees[node] as f32;
                    (score, node)
                })
                .collect();
            // Eq. 9 + "top-n highest scores in each cluster".
            cluster_scores
                .sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            scored.extend(cluster_scores.into_iter().take(per_cluster));
        }
    }
    // Respect the overall budget: keep the globally highest-scoring nodes.
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    scored.truncate(budget);
    let scores: Vec<f32> = scored.iter().map(|&(s, _)| s).collect();
    let poisoned_nodes: Vec<usize> = scored.into_iter().map(|(_, n)| n).collect();
    SelectionResult {
        poisoned_nodes,
        scores,
        selector_train_accuracy: selector.train_accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::randomized_selection;
    use bgc_graph::{DatasetKind, PoisonBudget};

    fn quick_config() -> BgcConfig {
        BgcConfig {
            selector_epochs: 30,
            ..BgcConfig::quick()
        }
    }

    #[test]
    fn representative_selection_respects_budget_and_classes() {
        let graph = DatasetKind::Cora.load_small(7);
        let mut config = quick_config();
        config.poison_budget = PoisonBudget::Count(10);
        let result = select_poisoned_nodes(&graph, &config);
        assert!(result.poisoned_nodes.len() <= 10);
        assert!(!result.poisoned_nodes.is_empty());
        for &node in &result.poisoned_nodes {
            assert_ne!(
                graph.labels[node], config.target_class,
                "target-class nodes must not be poisoned"
            );
            assert!(
                graph.split.train.contains(&node),
                "poisoned nodes come from the training split"
            );
        }
        // No duplicates.
        let unique: std::collections::BTreeSet<_> = result.poisoned_nodes.iter().collect();
        assert_eq!(unique.len(), result.poisoned_nodes.len());
        assert!(result.selector_train_accuracy > 0.3);
    }

    #[test]
    fn random_selection_differs_from_representative() {
        let graph = DatasetKind::Cora.load_small(8);
        let mut rep_cfg = quick_config();
        rep_cfg.poison_budget = PoisonBudget::Count(8);
        let mut rand_cfg = rep_cfg.clone();
        rand_cfg.selection = SelectionStrategy::Random;
        let rep = select_poisoned_nodes(&graph, &rep_cfg);
        let rnd = select_poisoned_nodes(&graph, &rand_cfg);
        assert_eq!(rnd.poisoned_nodes.len(), 8);
        assert_ne!(rep.poisoned_nodes, rnd.poisoned_nodes);
        for &node in &rnd.poisoned_nodes {
            assert_ne!(graph.labels[node], rand_cfg.target_class);
        }
    }

    #[test]
    fn directed_selection_only_uses_the_source_class() {
        let graph = DatasetKind::Citeseer.load_small(9);
        let mut config = quick_config();
        config.poison_budget = PoisonBudget::Count(6);
        config.selection = SelectionStrategy::DirectedFrom(2);
        config.target_class = 0;
        let result = select_poisoned_nodes(&graph, &config);
        assert!(!result.poisoned_nodes.is_empty());
        for &node in &result.poisoned_nodes {
            assert_eq!(graph.labels[node], 2);
        }
    }

    /// Two selections on one graph train the selector twice, since nothing
    /// memoizes it, and pick the same nodes.
    #[test]
    fn selection_is_deterministic_given_seed() {
        let graph = DatasetKind::Cora.load_small(5);
        let mut config = quick_config();
        config.poison_budget = PoisonBudget::Count(6);
        let a = select_poisoned_nodes(&graph, &config);
        let b = select_poisoned_nodes(&graph, &config);
        assert_eq!(a.poisoned_nodes, b.poisoned_nodes);
    }

    #[test]
    fn a_supplied_selector_output_selects_what_in_place_training_selects() {
        let graph = DatasetKind::Citeseer.load_small(9);
        let mut config = quick_config();
        config.poison_budget = PoisonBudget::Count(6);
        config.target_class = 0;
        let supplied = Arc::new(selector_representations(&graph, &config));
        let supply = || Arc::clone(&supplied);
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        for selection in [
            SelectionStrategy::Representative,
            SelectionStrategy::DirectedFrom(2),
        ] {
            let config = BgcConfig {
                selection,
                ..config.clone()
            };
            let trained = select_poisoned_nodes(&graph, &config);
            let given = select_with(&graph, &config, Some(&supply));
            assert!(!given.poisoned_nodes.is_empty());
            assert_eq!(
                given.poisoned_nodes, trained.poisoned_nodes,
                "{selection:?}"
            );
            assert_eq!(bits(&given.scores), bits(&trained.scores));
            assert_eq!(
                given.selector_train_accuracy.to_bits(),
                trained.selector_train_accuracy.to_bits()
            );
        }
        // Random selection never asks for the selector.
        let random = randomized_selection(&config);
        let never = || -> Arc<SelectorOutput> { panic!("random selection called the selector") };
        assert_eq!(
            select_with(&graph, &random, Some(&never)).poisoned_nodes,
            select_poisoned_nodes(&graph, &random).poisoned_nodes
        );
    }
}
