//! Integration tests of the open `bgc` facade: the attack/condenser/defense
//! registries, the typed experiment builder, and their interplay with the
//! grid runner.
//!
//! The headline test registers a *new* attack and a *new* defense from the
//! outside — no edits to `crates/eval` — and runs them end-to-end through
//! `Experiment::builder()` and the runner.

use std::sync::Arc;

use bgc_condense::{resolve_condenser, CondensationKind, CondensationMethod, MethodId};
use bgc_core::{
    register_attack, resolve_attack, Attack, AttackArtifacts, AttackId, AttackKind, BgcConfig,
    BgcError, LazySelector,
};
use bgc_defense::{register_defense, resolve_defense, Defense};
use bgc_eval::{CellOverrides, EvalKind, Experiment, ExperimentScale, Runner, DEFAULT_BASE_SEED};
use bgc_graph::{CondensedGraph, DatasetKind, Graph};
use bgc_nn::GnnArchitecture;
use bgc_tensor::Matrix;
use proptest::prelude::*;

/// A deliberately crude attack defined entirely outside the workspace's eval
/// code: it relabels every synthetic node of the clean condensed graph to the
/// target class and hands out a constant universal trigger.
struct LabelFlipAttack;

impl Attack for LabelFlipAttack {
    fn name(&self) -> &str {
        "ToyLabelFlip"
    }

    fn needs_clean_reference(&self) -> bool {
        true
    }

    fn run(
        &self,
        graph: &Graph,
        _method: &dyn CondensationMethod,
        config: &BgcConfig,
        clean: Option<&CondensedGraph>,
        _selector: Option<LazySelector<'_>>,
    ) -> Result<AttackArtifacts, BgcError> {
        let clean = clean.ok_or_else(|| BgcError::MissingCleanReference {
            attack: self.name().to_string(),
        })?;
        let mut condensed = clean.clone();
        for label in condensed.labels.iter_mut() {
            *label = config.target_class;
        }
        let trigger = bgc_core::UniversalTrigger::new(Matrix::from_fn(
            config.trigger_size,
            graph.num_features(),
            |_, _| 0.5,
        ));
        Ok(AttackArtifacts {
            condensed: Arc::new(condensed),
            provider: Arc::new(trigger),
        })
    }
}

/// A toy defense: drops every edge of the condensed graph (extreme pruning).
struct EdgeWipeDefense;

impl Defense for EdgeWipeDefense {
    fn name(&self) -> &str {
        "edgewipe"
    }

    fn sanitize(&self, condensed: &CondensedGraph) -> CondensedGraph {
        let mut sanitized = condensed.clone();
        sanitized.adjacency = Matrix::zeros(condensed.num_nodes(), condensed.num_nodes());
        sanitized
    }
}

#[test]
fn a_registered_toy_attack_runs_end_to_end_without_touching_eval() {
    register_attack(Arc::new(LabelFlipAttack));
    register_defense(Arc::new(EdgeWipeDefense));
    assert!(resolve_attack("ToyLabelFlip").is_some());
    assert!(resolve_defense("edgewipe").is_some());

    let runner = Runner::in_memory(ExperimentScale::Quick);
    let short = CellOverrides {
        outer_epochs: Some(4),
        ..CellOverrides::default()
    };
    let experiment = Experiment::builder()
        .dataset(DatasetKind::Cora)
        .method("GCond-X")
        .attack("toylabelflip") // case-insensitive resolution
        .overrides(short.clone())
        .build()
        .expect("registered attack validates");
    assert_eq!(experiment.attack.as_str(), "ToyLabelFlip");
    let metrics = experiment.run(&runner).expect("toy attack runs");
    assert_eq!(metrics.attack, "ToyLabelFlip");
    assert!(!metrics.oom);
    // Every condensed label is the target class, so a victim trained on it
    // predicts the target class (almost) everywhere: ASR is (near) total.
    assert!(
        metrics.asr > 0.9,
        "label flipping should dominate, got ASR {}",
        metrics.asr
    );

    // The same toy attack evaluated through the externally registered toy
    // defense — still no edits to the eval crate.
    let defended = Experiment::builder()
        .dataset(DatasetKind::Cora)
        .method("GCond-X")
        .attack("ToyLabelFlip")
        .overrides(short)
        .defense("edgewipe")
        .build()
        .expect("registered defense validates")
        .run(&runner)
        .expect("defended toy attack runs");
    assert!(defended.cta >= 0.0 && defended.cta <= 1.0);
    assert!(defended.asr >= 0.0 && defended.asr <= 1.0);
}

#[test]
fn builtin_registries_round_trip_by_name() {
    for kind in AttackKind::all() {
        let attack = resolve_attack(kind.name()).expect("attack registered");
        assert_eq!(attack.name(), kind.name());
        assert_eq!(AttackId::from(kind).as_str(), kind.name());
    }
    for kind in CondensationKind::all() {
        let method = resolve_condenser(kind.name()).expect("method registered");
        assert_eq!(method.name(), kind.name());
        assert_eq!(MethodId::from(kind).as_str(), kind.name());
    }
    for name in ["prune", "randsmooth"] {
        assert_eq!(
            resolve_defense(name).expect("defense registered").name(),
            name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Builder-lowered cell keys are identical to hand-constructed runner
    /// groups across the whole coordinate space the paper sweeps.
    #[test]
    fn builder_lowered_cell_keys_equal_hand_constructed_ones(
        dataset_idx in 0usize..4,
        method_idx in 0usize..4,
        attack_idx in 0usize..5,
        ratio_idx in 0usize..3,
        arch_idx in 0usize..6,
        use_arch in 0usize..2,
        layers in 1usize..4,
        use_layers in 0usize..2,
        trigger_size in 1usize..6,
        use_trigger in 0usize..2,
        defended in 0usize..3,
    ) {
        let dataset = DatasetKind::all()[dataset_idx];
        let method = CondensationKind::all()[method_idx];
        let attack = AttackKind::all()[attack_idx];
        let ratio = dataset.paper_condensation_ratios()[ratio_idx];
        let eval = match defended {
            0 => EvalKind::Standard,
            1 => EvalKind::prune(),
            _ => EvalKind::randsmooth(),
        };

        let overrides = CellOverrides {
            architecture: (use_arch == 1).then(|| GnnArchitecture::all()[arch_idx]),
            num_layers: (use_layers == 1).then_some(layers),
            trigger_size: (use_trigger == 1).then_some(trigger_size),
            ..CellOverrides::default()
        };
        let mut builder = Experiment::builder()
            .dataset(dataset)
            .method(method)
            .attack(attack)
            .ratio(ratio)
            .overrides(overrides.clone());
        if let EvalKind::Defended(defense) = &eval {
            builder = builder.defense(defense.clone());
        }
        let experiment = builder.build().expect("valid coordinates");

        let runner = Runner::in_memory(ExperimentScale::Quick);
        let from_builder = experiment.group(&runner).expect("scales match");
        let by_hand = runner.group(dataset, method, attack, ratio, eval, overrides);
        prop_assert_eq!(&from_builder.keys, &by_hand.keys);
        // The experiment keeps the coordinates it was built from.
        prop_assert_eq!(experiment.dataset, dataset);
        prop_assert_eq!(experiment.ratio.to_bits(), ratio.to_bits());
        prop_assert_eq!(experiment.seed, DEFAULT_BASE_SEED);
        prop_assert_eq!(experiment.method.as_str(), method.name());
        prop_assert_eq!(experiment.attack.as_str(), attack.name());
    }
}
