//! # bgc-core
//!
//! The primary contribution of *"Backdoor Graph Condensation"* (ICDE 2025),
//! reproduced in Rust: the BGC attack — a malicious graph-condensation
//! service provider that injects iteratively-updated triggers into the
//! original graph so that GNNs trained on the condensed graph are backdoored —
//! together with its poisoned-node selector, adaptive trigger generator,
//! attachment operator, evaluation protocol (CTA/ASR), the attack baselines
//! (Naive Poison, GTA, DOORPING) and the ablation variants (random selection,
//! directed attack).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Code epoch of the attack implementations.  The artifact store mixes this
/// into the keys of attack-stage artifacts; bump it when the BGC attack, a
/// baseline attack, the selector, the trigger generator or the attachment
/// operator changes numerical behaviour, so stored attack artifacts from the
/// old implementation are invalidated precisely.
pub const ATTACK_CODE_EPOCH: u32 = 1;

pub mod attach;
pub mod attack;
pub mod baselines;
pub mod config;
pub mod error;
pub mod evaluation;
pub mod kmeans;
pub mod registry;
pub mod selector;
pub mod trigger;
pub mod variants;

pub use attach::{
    attach_for_evaluation, attach_to_computation_graph, attach_to_sampled_computation_graph,
    build_poisoned_graph, AttachedGraph,
};
pub use attack::{BgcAttack, BgcOutcome};
pub use config::{BgcConfig, GeneratorKind, SelectionStrategy};
pub use error::BgcError;
pub use evaluation::{
    asr_candidate_pool, asr_sample_nodes, evaluate_backdoor, evaluate_with_defense,
    full_graph_reference_accuracy, AttackEvaluation, EvaluationOptions, VictimSpec,
};
pub use kmeans::{kmeans, KMeansResult};
pub use registry::{
    attack_names, register_attack, resolve_attack, Attack, AttackArtifacts, AttackId, AttackKind,
};
pub use selector::{select_poisoned_nodes, SelectionResult};
pub use trigger::{
    GeneratorSnapshot, TriggerGenerator, TriggerProvider, TriggerSnapshot, UniversalTrigger,
};
pub use variants::{directed_attack, randomized_selection};

#[cfg(test)]
mod proptests {
    use super::*;
    use bgc_tensor::init::rng_from_seed;
    use bgc_tensor::Matrix;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// K-means assignments always index valid clusters and cover all points.
        #[test]
        fn kmeans_assignments_are_valid(
            n in 2usize..30,
            k in 1usize..6,
            seed in 0u64..500,
        ) {
            let mut rng = rng_from_seed(seed);
            let points = bgc_tensor::init::randn(n, 3, 0.0, 1.0, &mut rng);
            let result = kmeans(&points, k, 20, &mut rng);
            prop_assert_eq!(result.assignments.len(), n);
            let k_eff = k.min(n);
            prop_assert!(result.assignments.iter().all(|&a| a < k_eff));
            prop_assert!(result.inertia >= 0.0);
        }

        /// The universal trigger provider returns the same block for any node.
        #[test]
        fn universal_trigger_is_node_agnostic(rows in 1usize..5, cols in 1usize..8) {
            let features = Matrix::from_fn(rows, cols, |r, c| (r * cols + c) as f32);
            let provider = UniversalTrigger::new(features.clone());
            prop_assert_eq!(provider.trigger_size(), rows);
            let adj = bgc_nn::AdjacencyRef::dense(Matrix::identity(3));
            let dummy = Matrix::zeros(3, cols);
            let a = provider.trigger_for(&adj, &dummy, 0);
            let b = provider.trigger_for(&adj, &dummy, 2);
            prop_assert!(a.approx_eq(&b, 0.0));
            prop_assert!(a.approx_eq(&features, 0.0));
        }
    }
}
