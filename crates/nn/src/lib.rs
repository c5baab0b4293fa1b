//! # bgc-nn
//!
//! Graph neural network substrate for the Rust reproduction of *"Backdoor
//! Graph Condensation"* (ICDE 2025): six GNN architectures (GCN, SGC,
//! GraphSAGE, MLP, APPNP, ChebyNet), Adam/SGD optimizers, full-batch and
//! neighbour-sampled training plans ([`TrainingPlan`]) for both original and
//! condensed graphs, and the CTA/ASR metrics of the paper's evaluation
//! protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes_without_reason
)]

pub mod adjacency;
pub mod metrics;
pub mod model;
pub mod models;
pub mod optim;
mod pipeline;
pub mod plan;
pub mod trainer;

pub use adjacency::AdjacencyRef;
pub use metrics::{accuracy, attack_success_rate, format_percent, mean_std};
pub use model::{ForwardPass, GnnArchitecture, GnnModel};
pub use optim::{Adam, Optimizer, Sgd};
pub use pipeline::{prefetch_stats, PrefetchStats, PREFETCH_DEPTH};
pub use plan::{SampledPlan, TrainingPlan};
pub use trainer::{
    evaluate, train_node_classifier, train_on_condensed, train_with_plan, TrainConfig, TrainReport,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use bgc_tensor::init::rng_from_seed;
    use bgc_tensor::{CsrMatrix, Matrix};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every architecture must produce finite logits of the right shape on
        /// arbitrary small graphs — the transfer study (Table III) relies on
        /// being able to swap architectures freely.
        #[test]
        fn all_architectures_produce_finite_logits(
            seed in 0u64..1000,
            edges in proptest::collection::vec((0usize..6, 0usize..6), 1..12),
        ) {
            let adj = AdjacencyRef::sparse(
                CsrMatrix::from_edges(6, &edges).symmetrize().gcn_normalize(),
            );
            let x = Matrix::from_fn(6, 5, |r, c| ((r * 5 + c + seed as usize) % 7) as f32 * 0.1);
            let mut rng = rng_from_seed(seed);
            for arch in GnnArchitecture::all() {
                let model = arch.build(5, 4, 3, 2, &mut rng);
                let logits = model.logits(&adj, &x);
                prop_assert_eq!(logits.shape(), (6, 3));
                prop_assert!(!logits.has_non_finite(), "{} produced non-finite logits", arch.name());
            }
        }

        /// Accuracy and ASR are always valid fractions.
        #[test]
        fn metrics_are_fractions(
            preds in proptest::collection::vec(0usize..5, 1..50),
            target in 0usize..5,
        ) {
            let labels = vec![0usize; preds.len()];
            let acc = accuracy(&preds, &labels);
            let asr = attack_success_rate(&preds, target);
            prop_assert!((0.0..=1.0).contains(&acc));
            prop_assert!((0.0..=1.0).contains(&asr));
        }
    }
}
