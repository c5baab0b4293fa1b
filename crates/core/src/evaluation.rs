//! Attack evaluation: clean test accuracy (CTA) and attack success rate
//! (ASR) of victim GNNs trained on (possibly poisoned) condensed graphs —
//! the protocol of Section V / Table II — with or without a defense
//! (Table IV).  [`evaluate_victims`] trains one victim per condensed graph
//! and measures them all on one set of ASR inputs, so a cell's ASR and
//! C-ASR read the same triggered nodes.

use std::cell::OnceCell;
use std::sync::Arc;

use bgc_defense::Defense;
use bgc_graph::{CondensedGraph, Graph};
use bgc_nn::{
    accuracy, attack_success_rate, train_node_classifier, train_on_condensed, AdjacencyRef,
    GnnArchitecture, GnnModel, TrainConfig, TrainingPlan,
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
/// and ASR on triggered test nodes: [`evaluate_victims`] for one victim,
/// without a defense.
///
/// The provider is always the attacker's trained trigger; when the victim
/// was trained on a *clean* condensed graph this yields the paper's C-CTA /
/// C-ASR reference columns (C-ASR stays near chance in the paper: the
/// triggers only work through the poisoned condensed graph).
pub fn evaluate_backdoor(
    graph: &Graph,
    condensed: &CondensedGraph,
    provider: &dyn TriggerProvider,
    attack_config: &BgcConfig,
    victim: &VictimSpec,
    options: &EvaluationOptions,
) -> AttackEvaluation {
    evaluate_victims(
        graph,
        &[condensed],
        provider,
        attack_config,
        victim,
        options,
        None,
    )[0]
}

/// CTA and ASR of one victim per graph of `condensed`, in order, optionally
/// through a [`Defense`] (Table IV).  A standard cell passes its poisoned
/// and its clean condensed graph: ASR and C-ASR are one measurement read by
/// two models.
///
/// Each victim trains on its graph, after [`Defense::sanitize`] when a
/// defense is given, from a fresh RNG stream keyed off `options.seed`
/// (defended victims from their own salt).  That stream is independent of
/// the ASR sample's, so a victim that draws more or fewer initialization
/// samples (another architecture or depth) cannot change which test nodes
/// the ASR is measured on, and no victim's result depends on the others.
/// Every prediction goes through [`Defense::predict`] when the defense
/// overrides inference (randomized smoothing), and through the plain forward
/// pass otherwise.  The clean-accuracy passes share one borrowed `Â · X`:
/// the whole graph's first propagation step is computed once, on first
/// use, and every victim whose clean pass is the plain forward of a model
/// that [`GnnModel::propagates_input_first`] (GCN, SGC) reads it under
/// [`AdjacencyRef::after_first_step`], with the bits of propagating its own
/// copy of `X`; other victims read `X` itself.  The victims share the ASR
/// inputs: the sample is drawn once, one [`TriggerProvider::triggers`] call
/// covers it, and each sampled node's computation graph is extracted once,
/// as node ids whose feature rows are gathered from `graph` into each
/// attached input.  An empty sample calls no provider.
pub fn evaluate_victims(
    graph: &Graph,
    condensed: &[&CondensedGraph],
    provider: &dyn TriggerProvider,
    attack_config: &BgcConfig,
    victim: &VictimSpec,
    options: &EvaluationOptions,
    defense: Option<&dyn Defense>,
) -> Vec<AttackEvaluation> {
    let test_labels = graph.labels_of(&graph.split.test);
    let predictions = predict_victims(
        graph,
        condensed,
        provider,
        attack_config,
        victim,
        options,
        defense,
    );
    predictions
        .into_iter()
        .map(|victim| {
            let test_preds: Vec<usize> =
                graph.split.test.iter().map(|&i| victim.clean[i]).collect();
            AttackEvaluation {
                cta: accuracy(&test_preds, &test_labels),
                asr: attack_success_rate(&victim.triggered, attack_config.target_class),
                asr_nodes: victim.triggered.len(),
            }
        })
        .collect()
}

/// What one victim of [`evaluate_victims`] predicted.
#[derive(Debug, PartialEq)]
struct VictimPredictions {
    /// The class of every node of the clean graph.
    clean: Vec<usize>,
    /// The class of each sampled ASR node in its triggered computation
    /// graph, in sample order.
    triggered: Vec<usize>,
}

/// Trains the victims of [`evaluate_victims`] and records their
/// predictions.
fn predict_victims(
    graph: &Graph,
    condensed: &[&CondensedGraph],
    provider: &dyn TriggerProvider,
    attack_config: &BgcConfig,
    victim: &VictimSpec,
    options: &EvaluationOptions,
    defense: Option<&dyn Defense>,
) -> Vec<VictimPredictions> {
    let defended = |model: &dyn GnnModel, adj: &AdjacencyRef, x: &Matrix| {
        defense.and_then(|d| d.predict(model, adj, x, graph.num_classes))
    };
    let predict = |model: &dyn GnnModel, tape: &mut Tape, adj: &AdjacencyRef, x: &Matrix| {
        defended(model, adj, x).unwrap_or_else(|| model.predict_on(tape, adj, x))
    };
    // One pooled tape serves the clean-accuracy forward passes, trigger
    // generation, and every victim's prediction on every sampled ASR node.
    let mut tape = Tape::new();
    let full_adj = AdjacencyRef::from_graph(graph);
    let propagated: OnceCell<Arc<Matrix>> = OnceCell::new();
    let predict_clean = |model: &dyn GnnModel, tape: &mut Tape| {
        if let Some(preds) = defended(model, &full_adj, &graph.features) {
            return preds;
        }
        if !model.propagates_input_first() {
            return model.predict_on(tape, &full_adj, &graph.features);
        }
        let ax = propagated.get_or_init(|| Arc::new(graph.normalized.spmm(&graph.features)));
        tape.reset();
        let x = tape.const_leaf(ax.clone());
        let pass = model.forward(tape, &full_adj.clone().after_first_step(), x);
        tape.value_ref(pass.logits).argmax_rows()
    };
    let init_salt = if defense.is_some() { 0x5107 } else { 0xe7a1 };
    // Each victim trains, then predicts every node of the full original
    // graph (its clean test accuracy).
    let (models, mut predictions): (Vec<Box<dyn GnnModel>>, Vec<VictimPredictions>) = condensed
        .iter()
        .map(|&condensed| {
            let sanitized = defense.map(|d| d.sanitize(condensed));
            let mut init_rng = rng_from_seed(options.seed ^ init_salt);
            let mut model = victim.architecture.build(
                graph.num_features(),
                victim.hidden_dim,
                graph.num_classes,
                victim.num_layers,
                &mut init_rng,
            );
            let condensed = sanitized.as_ref().unwrap_or(condensed);
            train_on_condensed(model.as_mut(), condensed, &victim.train);
            let clean = predict_clean(model.as_ref(), &mut tape);
            let triggered = Vec::new();
            (model, VictimPredictions { clean, triggered })
        })
        .unzip();
    // The ASR pass reads only computation graphs: release the shared `Â · X`.
    drop(propagated);

    // Predictions on triggered test nodes.
    let sample = asr_sample_nodes(graph, options, attack_config.target_class);
    if !sample.is_empty() {
        let size = provider.trigger_size();
        let triggers = provider.triggers(&mut tape, &full_adj, &graph.features, &sample);
        for (i, &node) in sample.iter().enumerate() {
            let attached = attach_for_evaluation(
                graph,
                node,
                size,
                attack_config,
                &options.plan,
                options.seed,
            );
            let block: Vec<usize> = (i * size..(i + 1) * size).collect();
            let features = attached.input(&graph.features, &triggers.select_rows(&block));
            let adj = attached.adjacency_ref();
            for (model, victim) in models.iter().zip(&mut predictions) {
                let preds = predict(model.as_ref(), &mut tape, &adj, &features);
                victim.triggered.push(preds[attached.center]);
            }
        }
    }
    predictions
}

/// Accuracy of a victim-shaped model trained full batch on the original
/// graph: the upper bound a condensed graph's accuracy is compared against.
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
    train_node_classifier(
        model.as_mut(),
        &adj,
        &graph.features,
        &graph.labels,
        &graph.split.train,
        &graph.split.val,
        &victim.train,
    );
    let preds = model.predict(&adj, &graph.features);
    let test_preds: Vec<usize> = graph.split.test.iter().map(|&i| preds[i]).collect();
    let test_labels = graph.labels_of(&graph.split.test);
    accuracy(&test_preds, &test_labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::tests::bits;
    use crate::attack::BgcAttack;
    use crate::config::GeneratorKind;
    use crate::trigger::{TriggerGenerator, UniversalTrigger};
    use bgc_condense::CondensationKind;
    use bgc_graph::{DatasetKind, PoisonBudget};
    use bgc_nn::SampledPlan;
    use bgc_tensor::init::randn;

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

    /// One [`TriggerProvider::triggers`] call for a whole ASR sample gives
    /// every node the bits of its one-node call, for every generator encoder
    /// and the universal trigger, on the 60-node samples of quick Cora and
    /// quick Flickr at seed 17.
    #[test]
    fn one_trigger_call_for_the_sample_matches_one_call_per_node() {
        let config = BgcConfig::quick();
        let options = EvaluationOptions {
            max_asr_nodes: 60,
            seed: 17,
            ..EvaluationOptions::default()
        };
        let mut tape = Tape::new();
        for dataset in [DatasetKind::Cora, DatasetKind::Flickr] {
            let graph = dataset.load_small(17);
            let adj = AdjacencyRef::from_graph(&graph);
            let sample = asr_sample_nodes(&graph, &options, config.target_class);
            assert_eq!(sample.len(), 60, "{dataset:?}");
            let mut rng = rng_from_seed(17);
            let d = graph.num_features();
            let mut providers: Vec<Box<dyn TriggerProvider>> = GeneratorKind::all()
                .into_iter()
                .map(|kind| {
                    Box::new(TriggerGenerator::with_feature_scale(
                        kind,
                        d,
                        config.hidden_dim,
                        config.trigger_size,
                        config.trigger_feature_scale,
                        &mut rng,
                    )) as Box<dyn TriggerProvider>
                })
                .collect();
            let universal = randn(config.trigger_size, d, 0.0, 0.5, &mut rng);
            providers.push(Box::new(UniversalTrigger::new(universal)));
            for (i, provider) in providers.iter().enumerate() {
                let batch = provider.triggers(&mut tape, &adj, &graph.features, &sample);
                let one_by_one: Vec<u32> = sample
                    .iter()
                    .flat_map(|&node| {
                        let block = provider.triggers(&mut tape, &adj, &graph.features, &[node]);
                        bits(block.data())
                    })
                    .collect();
                assert_eq!(
                    batch.shape(),
                    (sample.len() * config.trigger_size, d),
                    "{dataset:?}, provider {i}"
                );
                assert_eq!(bits(batch.data()), one_by_one, "{dataset:?}, provider {i}");
            }
        }
    }

    /// A source class without test nodes leaves the ASR sample empty: every
    /// victim reports no ASR nodes, and the provider is never called (the
    /// generator asserts that its batch is non-empty).
    #[test]
    fn an_empty_asr_pool_makes_no_trigger_call() {
        struct Uncallable;
        impl TriggerProvider for Uncallable {
            fn trigger_size(&self) -> usize {
                2
            }
            fn triggers(&self, _: &mut Tape, _: &AdjacencyRef, _: &Matrix, n: &[usize]) -> Matrix {
                panic!("triggers called for {} nodes", n.len())
            }
        }
        let graph = DatasetKind::Cora.load_small(38);
        let config = BgcConfig::quick();
        let options = EvaluationOptions {
            asr_source_class: Some(graph.num_classes),
            ..EvaluationOptions::default()
        };
        assert!(asr_sample_nodes(&graph, &options, config.target_class).is_empty());
        let clean = CondensationKind::GCondX
            .build()
            .condense(&graph, &config.condensation)
            .expect("clean condensation");
        let victim = VictimSpec::quick();
        let evaluations = evaluate_victims(
            &graph,
            &[&clean, &clean],
            &Uncallable,
            &config,
            &victim,
            &options,
            None,
        );
        assert_eq!(evaluations.len(), 2);
        for eval in evaluations {
            assert_eq!(eval.asr_nodes, 0);
            assert_eq!(eval.asr, 0.0);
        }
    }

    /// A standard cell's victims, evaluated together on one set of ASR
    /// inputs, get the bits of two one-victim evaluations, under the
    /// full-batch and the sampled extraction alike.
    #[test]
    fn shared_victims_match_one_victim_evaluations() {
        let graph = DatasetKind::Cora.load_small(39);
        let mut config = BgcConfig::quick();
        config.condensation.outer_epochs = 5;
        config.poison_budget = PoisonBudget::Count(6);
        let outcome = BgcAttack::new(config.clone())
            .run(&graph, CondensationKind::GCondX)
            .expect("attack should run");
        let clean = CondensationKind::GCondX
            .build()
            .condense(&graph, &config.condensation)
            .expect("clean condensation");
        let victim = VictimSpec::quick();
        let sampled = TrainingPlan::Sampled(SampledPlan {
            fanouts: vec![3, 3],
            batch_size: 64,
        });
        for plan in [TrainingPlan::FullBatch, sampled] {
            let options = EvaluationOptions {
                max_asr_nodes: 30,
                plan,
                ..EvaluationOptions::default()
            };
            let condensed = [&outcome.condensed, &clean];
            let shared = evaluate_victims(
                &graph,
                &condensed,
                &outcome.generator,
                &config,
                &victim,
                &options,
                None,
            );
            assert_eq!(shared.len(), 2);
            for (together, graph_of) in shared.iter().zip(condensed) {
                let alone = evaluate_backdoor(
                    &graph,
                    graph_of,
                    &outcome.generator,
                    &config,
                    &victim,
                    &options,
                );
                assert_eq!(together.cta.to_bits(), alone.cta.to_bits());
                assert_eq!(together.asr.to_bits(), alone.asr.to_bits());
                assert_eq!(together.asr_nodes, alone.asr_nodes);
                assert_eq!(alone.asr_nodes, 30);
            }
        }
    }

    /// [`predict_victims`] as it was before the shared `Â · X` and the
    /// id-based computation graphs: every prediction through
    /// [`GnnModel::predict_on`] on its own copy of the input (or through
    /// [`Defense::predict`]), and each attached input stacked from copied
    /// feature rows.
    fn predict_on_reference(
        graph: &Graph,
        condensed: &[&CondensedGraph],
        provider: &dyn TriggerProvider,
        attack_config: &BgcConfig,
        victim: &VictimSpec,
        options: &EvaluationOptions,
        defense: Option<&dyn Defense>,
    ) -> Vec<VictimPredictions> {
        let predict = |model: &dyn GnnModel, tape: &mut Tape, adj: &AdjacencyRef, x: &Matrix| {
            defense
                .and_then(|d| d.predict(model, adj, x, graph.num_classes))
                .unwrap_or_else(|| model.predict_on(tape, adj, x))
        };
        let mut tape = Tape::new();
        let full_adj = AdjacencyRef::from_graph(graph);
        let init_salt = if defense.is_some() { 0x5107 } else { 0xe7a1 };
        let mut models = Vec::new();
        let mut predictions = Vec::new();
        for &condensed in condensed {
            let sanitized = defense.map(|d| d.sanitize(condensed));
            let mut model = victim.architecture.build(
                graph.num_features(),
                victim.hidden_dim,
                graph.num_classes,
                victim.num_layers,
                &mut rng_from_seed(options.seed ^ init_salt),
            );
            let condensed = sanitized.as_ref().unwrap_or(condensed);
            train_on_condensed(model.as_mut(), condensed, &victim.train);
            let clean = predict(model.as_ref(), &mut tape, &full_adj, &graph.features);
            models.push(model);
            predictions.push(VictimPredictions {
                clean,
                triggered: Vec::new(),
            });
        }
        let sample = asr_sample_nodes(graph, options, attack_config.target_class);
        let size = provider.trigger_size();
        let triggers = provider.triggers(&mut tape, &full_adj, &graph.features, &sample);
        for (i, &node) in sample.iter().enumerate() {
            let attached = attach_for_evaluation(
                graph,
                node,
                size,
                attack_config,
                &options.plan,
                options.seed,
            );
            let block: Vec<usize> = (i * size..(i + 1) * size).collect();
            let sub_features = graph.features.select_rows(&attached.nodes);
            let features = sub_features.vstack(&triggers.select_rows(&block));
            for (model, victim) in models.iter().zip(&mut predictions) {
                let preds = predict(
                    model.as_ref(),
                    &mut tape,
                    &attached.adjacency_ref(),
                    &features,
                );
                victim.triggered.push(preds[attached.center]);
            }
        }
        predictions
    }

    /// Every victim's clean predictions (its CTA) and ASR predictions keep
    /// the bits of the `predict_on` reference: GCN at 1, 2 and 3 layers and
    /// SGC at K = 1 and 2 read the shared `Â · X`, undefended and behind
    /// Prune; SAGE, APPNP, ChebyNet and MLP read `X`, and so do GCN and SGC
    /// behind randomized smoothing, whose `Defense::predict` overrides
    /// inference.
    #[test]
    fn victims_keep_the_bits_of_a_predict_on_reference() {
        use bgc_defense::{PruneDefense, RandsmoothDefense};
        use GnnArchitecture::{Appnp, Cheby, Gcn, Mlp, Sage, Sgc};
        let graph = DatasetKind::Cora.load_small(41);
        let mut config = BgcConfig::quick();
        config.condensation.outer_epochs = 5;
        config.poison_budget = PoisonBudget::Count(6);
        let outcome = BgcAttack::new(config.clone())
            .run(&graph, CondensationKind::GCondX)
            .expect("attack should run");
        let clean = CondensationKind::GCondX
            .build()
            .condense(&graph, &config.condensation)
            .expect("clean condensation");
        let condensed = [&outcome.condensed, &clean];
        let options = EvaluationOptions {
            max_asr_nodes: 20,
            seed: 3,
            ..EvaluationOptions::default()
        };
        let (prune, randsmooth) = (PruneDefense::default(), RandsmoothDefense::default());
        let first_step: [(GnnArchitecture, usize); 5] =
            [(Gcn, 1), (Gcn, 2), (Gcn, 3), (Sgc, 1), (Sgc, 2)];
        let raw_input = [(Sage, 2), (Appnp, 2), (Cheby, 2), (Mlp, 2)];
        let mut cases: Vec<(GnnArchitecture, usize, Option<&dyn Defense>)> = Vec::new();
        for (arch, layers) in first_step {
            cases.extend([
                (arch, layers, None),
                (arch, layers, Some(&prune as &dyn Defense)),
            ]);
        }
        cases.extend(raw_input.map(|(arch, layers)| (arch, layers, None)));
        cases.extend([
            (Gcn, 2, Some(&randsmooth as &dyn Defense)),
            (Sgc, 1, Some(&randsmooth)),
        ]);
        for (arch, layers, defense) in cases {
            let victim = VictimSpec {
                architecture: arch,
                num_layers: layers,
                ..VictimSpec::quick()
            };
            let model = arch.build(4, 4, 2, layers, &mut rng_from_seed(0));
            assert_eq!(
                model.propagates_input_first(),
                first_step.contains(&(arch, layers)),
                "{arch} x {layers}"
            );
            let provider = &outcome.generator;
            let shared = predict_victims(
                &graph, &condensed, provider, &config, &victim, &options, defense,
            );
            let reference = predict_on_reference(
                &graph, &condensed, provider, &config, &victim, &options, defense,
            );
            let name = defense.map_or("standard", |d| d.name());
            assert_eq!(shared, reference, "{arch} x {layers}, {name}");
            assert!(shared.iter().all(|v| v.triggered.len() == 20));
        }
    }

    #[test]
    fn full_graph_reference_beats_chance() {
        let graph = DatasetKind::Citeseer.load_small(34);
        let acc = full_graph_reference_accuracy(&graph, &VictimSpec::quick(), 0);
        assert!(acc > 1.5 / graph.num_classes as f32);
    }
}
