//! Cross-crate integration tests: the full BGC pipeline from dataset
//! generation through condensation, attack, victim training and evaluation.

use std::sync::Arc;

use bgc_condense::{
    register_condenser, CondensationConfig, CondensationKind, CondensationMethod, CondenseError,
};
use bgc_core::{evaluate_backdoor, BgcAttack, BgcConfig, EvaluationOptions, VictimSpec};
use bgc_defense::{prune_defense, PruneConfig};
use bgc_eval::{AttackKind, CellOverrides, CellStatus, EvalKind, ExperimentScale, Runner};
use bgc_graph::{CondensedGraph, DatasetKind, Graph, PoisonBudget};
use bgc_nn::GnnArchitecture;

fn quick_attack_config() -> BgcConfig {
    let mut config = BgcConfig::quick();
    config.condensation.outer_epochs = 40;
    config.condensation.ratio = 0.3;
    config.poison_budget = PoisonBudget::Ratio(0.35);
    config.max_neighbors_per_hop = 8;
    config
}

#[test]
fn bgc_beats_clean_reference_on_citeseer() {
    let graph = DatasetKind::Citeseer.load_small(61);
    let config = quick_attack_config();
    let outcome = BgcAttack::new(config.clone())
        .run(&graph, CondensationKind::GCondX)
        .expect("attack runs");
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
        backdoored.asr > 0.8,
        "backdoored ASR too low: {}",
        backdoored.asr
    );
    // At quick scale the Citeseer stand-in has a very low average degree, so
    // the attached trigger also sways the clean reference model noticeably
    // (its C-ASR is inflated compared to the paper); the backdoored model
    // must still be at least as successful.
    assert!(
        backdoored.asr >= reference.asr - 0.05,
        "backdoor must not fall behind the clean reference ({} vs {})",
        backdoored.asr,
        reference.asr
    );
    assert!(
        (reference.cta - backdoored.cta).abs() < 0.3,
        "utility should be broadly preserved ({} vs {})",
        backdoored.cta,
        reference.cta
    );
}

#[test]
fn backdoor_transfers_to_an_unseen_architecture() {
    // Attack is optimized against an SGC surrogate; the victim is GraphSAGE.
    let graph = DatasetKind::Cora.load_small(62);
    let config = quick_attack_config();
    let outcome = BgcAttack::new(config.clone())
        .run(&graph, CondensationKind::GCondX)
        .expect("attack runs");
    let victim = VictimSpec {
        architecture: GnnArchitecture::Sage,
        ..VictimSpec::quick()
    };
    let options = EvaluationOptions {
        max_asr_nodes: 50,
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
    assert!(eval.asr >= 0.4, "transfer ASR too low: {}", eval.asr);
}

#[test]
fn pruning_the_condensed_graph_does_not_remove_the_backdoor() {
    let graph = DatasetKind::Cora.load_small(63);
    let config = quick_attack_config();
    let outcome = BgcAttack::new(config.clone())
        .run(&graph, CondensationKind::GCond)
        .expect("attack runs");
    let pruned = prune_defense(&outcome.condensed, &PruneConfig::default());
    assert!(pruned.edges_after <= pruned.edges_before);
    let victim = VictimSpec::quick();
    let options = EvaluationOptions {
        max_asr_nodes: 50,
        ..Default::default()
    };
    let defended = evaluate_backdoor(
        &graph,
        &pruned.condensed,
        &outcome.generator,
        &config,
        &victim,
        &options,
    );
    // The paper's point: the malicious information lives in the synthetic
    // node features, so pruning edges cannot fully remove it.
    assert!(
        defended.asr > 0.3,
        "Prune should not eliminate the backdoor (ASR {})",
        defended.asr
    );
}

/// GC-SNTK with a one-node capacity: it refuses every training set the way
/// GC-SNTK refuses Reddit in Table II, both when it condenses and in the
/// capacity check an attack runs first.
struct OneNodeSntk;

fn one_node(config: &CondensationConfig) -> CondensationConfig {
    CondensationConfig {
        sntk_node_limit: 1,
        ..config.clone()
    }
}

impl CondensationMethod for OneNodeSntk {
    fn name(&self) -> &str {
        "OneNodeSNTK"
    }

    fn condense(
        &self,
        graph: &Graph,
        config: &CondensationConfig,
    ) -> Result<CondensedGraph, CondenseError> {
        CondensationKind::GcSntk
            .build()
            .condense(graph, &one_node(config))
    }

    fn check_capacity(
        &self,
        graph: &Graph,
        config: &CondensationConfig,
    ) -> Result<(), CondenseError> {
        CondensationKind::GcSntk
            .build()
            .check_capacity(graph, &one_node(config))
    }
}

#[test]
fn sntk_oom_row_matches_table_two() {
    // The runner turns an OOM from either stage into the paper's OOM row: a
    // standard cell fails in its clean condensation, and a prune cell, which
    // has no clean stage, fails in the attack's capacity check.
    register_condenser(Arc::new(OneNodeSntk));
    let runner = Runner::in_memory(ExperimentScale::Quick);
    let groups = [EvalKind::Standard, EvalKind::prune()].map(|eval| {
        runner.group(
            DatasetKind::Cora,
            "OneNodeSNTK",
            AttackKind::Bgc,
            0.013,
            eval,
            CellOverrides::default(),
        )
    });
    let report = runner
        .run_groups(&[&groups[0], &groups[1]])
        .expect("OOM is a result, not an error");
    assert_eq!(report.outcomes.len(), 2);
    for outcome in &report.outcomes {
        assert_eq!(outcome.status, CellStatus::Oom, "{}", outcome.key.canon());
    }
    let stats = runner.stats();
    assert_eq!(stats.clean_stages_computed, 1);
    assert_eq!(stats.attack_stages_computed, 1);
    for group in &groups {
        let metrics = runner.metrics(group).expect("OOM is a row, not an error");
        assert!(metrics.oom, "expected an OOM row");
        assert!(metrics.table_row().contains("OOM"));
    }
}

#[test]
fn clean_condensation_pipeline_is_deterministic_per_seed() {
    let graph = DatasetKind::Cora.load_small(64);
    let config = CondensationConfig::quick(0.2);
    let a = CondensationKind::GCondX
        .build()
        .condense(&graph, &config)
        .unwrap();
    let b = CondensationKind::GCondX
        .build()
        .condense(&graph, &config)
        .unwrap();
    assert_eq!(a.labels, b.labels);
    assert!(a.features.approx_eq(&b.features, 1e-6));
}
