//! Attack evaluation: clean test accuracy (CTA) and attack success rate
//! (ASR) of a victim GNN trained on a (possibly poisoned) condensed graph —
//! the protocol of Section V / Table II — with or without a defense
//! (Table IV).

use bgc_defense::Defense;
use bgc_graph::{CondensedGraph, Graph};
use bgc_nn::{
    accuracy, attack_success_rate, train_on_condensed, AdjacencyRef, GnnArchitecture, TrainConfig,
    TrainingPlan,
};
use bgc_tensor::init::{rng_from_seed, sample_without_replacement};
use bgc_tensor::{Matrix, Tape};

use crate::attach::attach_for_evaluation;
use crate::config::BgcConfig;
use crate::trigger::TriggerProvider;

/// Which victim model is trained on the condensed graph.
#[derive(Clone, Debug)]
pub struct VictimSpec {
    /// Victim architecture (GCN by default, Table III varies it).
    pub architecture: GnnArchitecture,
    /// Hidden dimension.
    pub hidden_dim: usize,
    /// Number of layers (Table VIII varies it).
    pub num_layers: usize,
    /// Training hyper-parameters on the condensed graph.
    pub train: TrainConfig,
    /// How full-graph victim stages (the Figure 1 reference model trained on
    /// the original graph) run: full batch or neighbour-sampled minibatches.
    /// Training on the condensed graph is always full batch — condensed
    /// graphs are tiny by construction.
    pub plan: TrainingPlan,
}

impl Default for VictimSpec {
    fn default() -> Self {
        Self {
            architecture: GnnArchitecture::Gcn,
            hidden_dim: 64,
            num_layers: 2,
            train: TrainConfig {
                epochs: 200,
                patience: None,
                ..TrainConfig::default()
            },
            plan: TrainingPlan::FullBatch,
        }
    }
}

impl VictimSpec {
    /// A faster spec for tests and the `quick` experiment scale.
    pub fn quick() -> Self {
        Self {
            hidden_dim: 32,
            train: TrainConfig::quick(),
            ..Self::default()
        }
    }
}

/// CTA and ASR of one victim model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AttackEvaluation {
    /// Clean test accuracy of the victim.
    pub cta: f32,
    /// Attack success rate on triggered test nodes.
    pub asr: f32,
    /// Number of test nodes used for the ASR estimate.
    pub asr_nodes: usize,
}

/// Options controlling the ASR estimate.
#[derive(Clone, Debug)]
pub struct EvaluationOptions {
    /// Maximum number of test nodes used to estimate the ASR (the paper uses
    /// the full test set; a cap keeps the quick scale fast).
    pub max_asr_nodes: usize,
    /// Restrict the ASR estimate to test nodes of this class (used by the
    /// directed-attack study, Table VI).
    pub asr_source_class: Option<usize>,
    /// How triggered computation graphs are extracted for the ASR estimate:
    /// under a sampled plan the k-hop extraction uses the plan's randomized
    /// fanout caps ([`crate::attach::attach_for_evaluation`]) instead of the
    /// deterministic first-k cap, matching the sampled training regime.
    pub plan: TrainingPlan,
    /// Random seed for victim initialization and ASR-node sampling.
    pub seed: u64,
}

impl Default for EvaluationOptions {
    fn default() -> Self {
        Self {
            max_asr_nodes: 200,
            asr_source_class: None,
            plan: TrainingPlan::FullBatch,
            seed: 0,
        }
    }
}

/// Test nodes eligible for the ASR estimate.
///
/// Without a source-class restriction the pool excludes test nodes whose true
/// label already equals the attacker's target class: counting those as
/// "successes" would inflate both ASR and C-ASR (a clean model classifying a
/// target-class node correctly is not an attack success).  The explicit
/// `asr_source_class` override (directed attack, Table VI) restricts the pool
/// to that class instead.
pub fn asr_candidate_pool(
    graph: &Graph,
    options: &EvaluationOptions,
    target_class: usize,
) -> Vec<usize> {
    match options.asr_source_class {
        Some(class) => graph
            .split
            .test
            .iter()
            .copied()
            .filter(|&i| graph.labels[i] == class)
            .collect(),
        None => graph
            .split
            .test
            .iter()
            .copied()
            .filter(|&i| graph.labels[i] != target_class)
            .collect(),
    }
}

/// The subsample of test nodes the ASR is measured on (global node indices).
///
/// Drawn from a dedicated RNG stream keyed off `options.seed` only, so the
/// sampled node set is identical across victim architectures, layer counts
/// and condensed graphs — the ASR columns of Tables III/VIII stay comparable.
pub fn asr_sample_nodes(
    graph: &Graph,
    options: &EvaluationOptions,
    target_class: usize,
) -> Vec<usize> {
    let candidates = asr_candidate_pool(graph, options, target_class);
    if candidates.is_empty() {
        return Vec::new();
    }
    let count = candidates.len().min(options.max_asr_nodes.max(1));
    let mut rng = rng_from_seed(options.seed ^ 0x51a9);
    let picked = sample_without_replacement(candidates.len(), count, &mut rng);
    picked.into_iter().map(|local| candidates[local]).collect()
}

/// Trains a victim model on `condensed` and evaluates CTA on the clean graph
/// and ASR on triggered test nodes: [`evaluate_with_defense`] without a
/// defense.
///
/// The generator is always the attacker's trained generator; when the victim
/// was trained on a *clean* condensed graph this yields the paper's C-CTA /
/// C-ASR reference columns (C-ASR stays near chance in the paper: the
/// triggers only work through the poisoned condensed graph).
pub fn evaluate_backdoor(
    graph: &Graph,
    condensed: &CondensedGraph,
    generator: &dyn TriggerProvider,
    attack_config: &BgcConfig,
    victim: &VictimSpec,
    options: &EvaluationOptions,
) -> AttackEvaluation {
    evaluate_with_defense(
        graph,
        condensed,
        generator,
        attack_config,
        victim,
        options,
        None,
    )
}

/// CTA and ASR of a victim trained on `condensed`, optionally through a
/// [`Defense`] (Table IV):
///
/// 1. with a defense, the condensed graph first passes through
///    [`Defense::sanitize`] (dataset-level defenses prune/transform it;
///    model-level defenses leave it alone);
/// 2. the victim trains on the (sanitized) graph;
/// 3. every prediction — clean test nodes and triggered nodes alike — goes
///    through [`Defense::predict`] when the defense overrides inference
///    (randomized smoothing), and the plain forward pass otherwise.
///
/// Victim weight initialization and the ASR node subsample are drawn from
/// *independent* RNG streams keyed off `options.seed`: a victim that draws
/// more or fewer initialization samples (different architecture or layer
/// count) must not silently change which test nodes the ASR is measured on,
/// so defended and undefended rows are measured on identical node sets.
/// Defended victims initialize from their own stream.
pub fn evaluate_with_defense(
    graph: &Graph,
    condensed: &CondensedGraph,
    generator: &dyn TriggerProvider,
    attack_config: &BgcConfig,
    victim: &VictimSpec,
    options: &EvaluationOptions,
    defense: Option<&dyn Defense>,
) -> AttackEvaluation {
    let sanitized;
    let (condensed, init_salt) = match defense {
        Some(defense) => {
            sanitized = defense.sanitize(condensed);
            (&sanitized, 0x5107)
        }
        None => (condensed, 0xe7a1),
    };
    let mut init_rng = rng_from_seed(options.seed ^ init_salt);
    let mut model = victim.architecture.build(
        graph.num_features(),
        victim.hidden_dim,
        graph.num_classes,
        victim.num_layers,
        &mut init_rng,
    );
    train_on_condensed(model.as_mut(), condensed, &victim.train);
    let predict = |tape: &mut Tape, adj: &AdjacencyRef, features: &Matrix| {
        defense
            .and_then(|d| d.predict(model.as_ref(), adj, features, graph.num_classes))
            .unwrap_or_else(|| model.predict_on(tape, adj, features))
    };

    // One pooled tape serves the clean-accuracy forward pass, trigger
    // generation, and victim prediction for every sampled ASR node.
    let mut tape = Tape::new();

    // Clean test accuracy on the full original graph.
    let full_adj = AdjacencyRef::from_graph(graph);
    let preds = predict(&mut tape, &full_adj, &graph.features);
    let test_preds: Vec<usize> = graph.split.test.iter().map(|&i| preds[i]).collect();
    let test_labels = graph.labels_of(&graph.split.test);
    let cta = accuracy(&test_preds, &test_labels);

    // Attack success rate on triggered test nodes.
    let sample = asr_sample_nodes(graph, options, attack_config.target_class);
    let mut triggered_predictions = Vec::with_capacity(sample.len());
    for &node in &sample {
        let attached = attach_for_evaluation(
            graph,
            node,
            generator.trigger_size(),
            attack_config,
            &options.plan,
            options.seed,
        );
        let trigger = generator.trigger_for_on(&mut tape, &full_adj, &graph.features, node);
        let features = attached.combined_features_plain(&trigger);
        let preds = predict(&mut tape, &attached.adjacency_ref(), &features);
        triggered_predictions.push(preds[attached.center]);
    }
    AttackEvaluation {
        cta,
        asr: attack_success_rate(&triggered_predictions, attack_config.target_class),
        asr_nodes: triggered_predictions.len(),
    }
}

/// Utility check used by Figure 1: accuracy of a model trained directly on
/// the original graph (the "Clean Model" upper bound).
pub fn full_graph_reference_accuracy(graph: &Graph, victim: &VictimSpec, seed: u64) -> f32 {
    let mut rng = rng_from_seed(seed);
    let mut model = victim.architecture.build(
        graph.num_features(),
        victim.hidden_dim,
        graph.num_classes,
        victim.num_layers,
        &mut rng,
    );
    let adj = AdjacencyRef::from_graph(graph);
    // Full-graph training is the stage the victim plan governs: at the
    // `large` scale this is a sampled minibatch run, everywhere else the
    // byte-identical full-batch path.  A sampled plan is adapted to the
    // victim's propagation depth (one fanout per step).
    let plan = match (
        &victim.plan,
        victim.architecture.propagation_depth(victim.num_layers),
    ) {
        (TrainingPlan::Sampled(sampled), Some(depth)) => {
            TrainingPlan::Sampled(sampled.with_depth(depth))
        }
        (plan, _) => plan.clone(),
    };
    bgc_nn::train_with_plan(model.as_mut(), graph, &victim.train, &plan, seed ^ 0x91e5);
    let preds = model.predict(&adj, &graph.features);
    let test_preds: Vec<usize> = graph.split.test.iter().map(|&i| preds[i]).collect();
    let test_labels = graph.labels_of(&graph.split.test);
    accuracy(&test_preds, &test_labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::BgcAttack;
    use bgc_condense::CondensationKind;
    use bgc_graph::{DatasetKind, PoisonBudget};

    #[test]
    fn backdoored_model_reaches_high_asr_and_reasonable_cta() {
        // End-to-end sanity check of the paper's headline claim on a small
        // Cora-like graph: ASR of the backdoored model is high while the
        // clean model's ASR stays near chance.
        let graph = DatasetKind::Cora.load_small(31);
        let mut config = BgcConfig::quick();
        config.condensation.outer_epochs = 40;
        config.condensation.ratio = 0.3;
        config.poison_budget = PoisonBudget::Count(10);
        config.max_neighbors_per_hop = 8;
        let attack = BgcAttack::new(config.clone());
        let outcome = attack
            .run(&graph, CondensationKind::GCondX)
            .expect("attack should run");

        let victim = VictimSpec::quick();
        let options = EvaluationOptions {
            max_asr_nodes: 60,
            ..Default::default()
        };
        let backdoored = evaluate_backdoor(
            &graph,
            &outcome.condensed,
            &outcome.generator,
            &config,
            &victim,
            &options,
        );
        assert!(
            backdoored.asr > 0.7,
            "backdoored ASR should be high, got {}",
            backdoored.asr
        );
        let chance = 1.0 / graph.num_classes as f32;
        assert!(
            backdoored.cta > 1.5 * chance,
            "backdoored CTA {} should stay well above chance {}",
            backdoored.cta,
            chance
        );

        // Clean reference: condense the clean graph with the same method.
        let clean = CondensationKind::GCondX
            .build()
            .condense(&graph, &config.condensation)
            .expect("clean condensation");
        let reference = evaluate_backdoor(
            &graph,
            &clean,
            &outcome.generator,
            &config,
            &victim,
            &options,
        );
        assert!(
            backdoored.asr > reference.asr + 0.2,
            "backdoored ASR ({}) should clearly exceed the clean model's ASR ({})",
            backdoored.asr,
            reference.asr
        );
    }

    #[test]
    fn directed_evaluation_restricts_the_source_class() {
        let graph = DatasetKind::Cora.load_small(33);
        let mut config = BgcConfig::quick();
        config.condensation.outer_epochs = 5;
        config.poison_budget = PoisonBudget::Count(6);
        let attack = BgcAttack::new(config.clone());
        let outcome = attack.run(&graph, CondensationKind::GCondX).unwrap();
        let victim = VictimSpec::quick();
        let options = EvaluationOptions {
            max_asr_nodes: 30,
            asr_source_class: Some(1),
            ..Default::default()
        };
        let eval = evaluate_backdoor(
            &graph,
            &outcome.condensed,
            &outcome.generator,
            &config,
            &victim,
            &options,
        );
        let class_1_test = graph
            .split
            .test
            .iter()
            .filter(|&&i| graph.labels[i] == 1)
            .count();
        assert!(eval.asr_nodes <= class_1_test.min(30));
    }

    #[test]
    fn asr_pool_excludes_target_class_test_nodes() {
        let graph = DatasetKind::Cora.load_small(35);
        let target_class = 0;
        let options = EvaluationOptions::default();
        let pool = asr_candidate_pool(&graph, &options, target_class);
        assert!(!pool.is_empty());
        assert!(
            pool.iter().all(|&i| graph.labels[i] != target_class),
            "target-class test nodes must not count as ASR candidates"
        );
        let non_target = graph
            .split
            .test
            .iter()
            .filter(|&&i| graph.labels[i] != target_class)
            .count();
        assert_eq!(pool.len(), non_target);

        // The directed override still restricts to the requested class.
        let directed = EvaluationOptions {
            asr_source_class: Some(2),
            ..EvaluationOptions::default()
        };
        let pool = asr_candidate_pool(&graph, &directed, target_class);
        assert!(pool.iter().all(|&i| graph.labels[i] == 2));
    }

    #[test]
    fn asr_sample_is_independent_of_the_victim() {
        // The sample depends only on (graph, options, target class); victim
        // weight init draws from a separate stream, so evaluating different
        // architectures measures the ASR on the same node set.
        let graph = DatasetKind::Cora.load_small(36);
        let options = EvaluationOptions {
            max_asr_nodes: 20,
            ..EvaluationOptions::default()
        };
        let a = asr_sample_nodes(&graph, &options, 0);
        let b = asr_sample_nodes(&graph, &options, 0);
        assert_eq!(a, b, "the sample is a pure function of its inputs");
        assert_eq!(a.len(), 20);
        assert!(a.iter().all(|&i| graph.labels[i] != 0));
        // Different seeds draw different samples (the stream is live).
        let other = EvaluationOptions { seed: 1, ..options };
        assert_ne!(a, asr_sample_nodes(&graph, &other, 0));
    }

    #[test]
    fn evaluation_measures_asr_on_the_same_nodes_across_victims() {
        // Regression test for the shared-RNG-stream bug: changing the victim
        // architecture or depth must not change the ASR node subsample, so
        // the number of evaluated nodes matches the victim-independent
        // sample exactly for every victim.
        let graph = DatasetKind::Cora.load_small(37);
        let config = BgcConfig::quick();
        let trigger = crate::trigger::UniversalTrigger::new(bgc_tensor::Matrix::from_fn(
            config.trigger_size,
            graph.num_features(),
            |_, _| 0.5,
        ));
        let options = EvaluationOptions {
            max_asr_nodes: 15,
            ..EvaluationOptions::default()
        };
        let clean = CondensationKind::GCondX
            .build()
            .condense(&graph, &config.condensation)
            .expect("clean condensation");
        let expected = asr_sample_nodes(&graph, &options, config.target_class).len();
        for victim in [
            VictimSpec::quick(),
            VictimSpec {
                num_layers: 3,
                ..VictimSpec::quick()
            },
            VictimSpec {
                architecture: GnnArchitecture::Sgc,
                ..VictimSpec::quick()
            },
        ] {
            let eval = evaluate_backdoor(&graph, &clean, &trigger, &config, &victim, &options);
            assert_eq!(eval.asr_nodes, expected);
        }
    }

    #[test]
    fn full_graph_reference_beats_chance() {
        let graph = DatasetKind::Citeseer.load_small(34);
        let acc = full_graph_reference_accuracy(&graph, &VictimSpec::quick(), 0);
        assert!(acc > 1.5 / graph.num_classes as f32);
    }
}
