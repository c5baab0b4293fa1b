//! # bgc-defense
//!
//! Defenses evaluated against BGC in Table IV of *"Backdoor Graph
//! Condensation"* (ICDE 2025):
//!
//! * [`prune_defense`] — dataset-level pruning of low-similarity edges in the
//!   condensed graph.
//! * [`randsmooth_predict`] — model-level randomized smoothing with majority
//!   voting over sub-sampled graphs.
//!
//! Both defenses exhibit the utility/defense trade-off the paper reports: the
//! ASR reduction they achieve is accompanied by a comparable or larger CTA
//! drop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes_without_reason
)]

pub mod prune;
pub mod randsmooth;
pub mod registry;

pub use prune::{prune_defense, PruneConfig, PruneOutcome};
pub use randsmooth::{randsmooth_predict, RandsmoothConfig};
pub use registry::{
    defense_names, register_defense, resolve_defense, Defense, DefenseId, PruneDefense,
    RandsmoothDefense,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use bgc_graph::CondensedGraph;
    use bgc_tensor::init::{randn, rng_from_seed};
    use bgc_tensor::Matrix;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Pruning never adds edges and never changes features or labels.
        #[test]
        fn pruning_is_monotone(seed in 0u64..200, fraction in 0.0f32..1.0) {
            let mut rng = rng_from_seed(seed);
            let n = 6;
            let features = randn(n, 4, 0.0, 1.0, &mut rng);
            let mut adjacency = Matrix::zeros(n, n);
            for r in 0..n {
                for c in (r + 1)..n {
                    if (r + c + seed as usize).is_multiple_of(3) {
                        adjacency.set(r, c, 1.0);
                        adjacency.set(c, r, 1.0);
                    }
                }
            }
            let condensed = CondensedGraph::new(features, adjacency, vec![0; n], 1);
            let outcome = prune_defense(&condensed, &PruneConfig { fraction });
            prop_assert!(outcome.edges_after <= outcome.edges_before);
            prop_assert!(outcome.condensed.features.approx_eq(&condensed.features, 0.0));
            prop_assert_eq!(&outcome.condensed.labels, &condensed.labels);
        }
    }
}
