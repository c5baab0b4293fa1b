//! # bgc-graph
//!
//! Graph substrate for the Rust reproduction of *"Backdoor Graph
//! Condensation"* (ICDE 2025): the node-classification graph type
//! `G = {A, X, Y}` with its public split, GCN normalization, k-hop
//! computation-graph extraction, the condensed graph type `S = {A', X', Y'}`,
//! and synthetic stand-ins for the paper's four benchmark datasets
//! (Cora, Citeseer, Flickr, Reddit — see "Substitutions" in the workspace
//! README for the rationale).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Code epoch of dataset synthesis and loading.  The artifact store mixes
/// this into every key derived from a loaded graph; bump it when dataset
/// generation, splits or feature construction change behaviour, so stored
/// artifacts computed from the old datasets are invalidated precisely.
pub const DATASET_CODE_EPOCH: u32 = 1;

pub mod condensed;
pub mod datasets;
pub mod graph;
pub mod sampling;
pub mod splits;
pub mod stats;
pub mod subgraph;

pub use condensed::CondensedGraph;
pub use datasets::{DatasetKind, PoisonBudget, SbmSpec};
pub use graph::{Graph, TaskSetting};
pub use sampling::{mix_seed, NeighborSampler, SampledBatch, SampledBlock, SamplerWorkspace};
pub use splits::DataSplit;
pub use stats::GraphStats;
pub use subgraph::{k_hop_subgraph, ComputationGraph};

#[cfg(test)]
mod proptests {
    use super::*;
    use bgc_tensor::CsrMatrix;
    use bgc_tensor::Matrix;
    use proptest::prelude::*;

    fn arbitrary_edges(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
        proptest::collection::vec((0..n, 0..n), 1..(n * 3))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn khop_subgraph_always_contains_center(edges in arbitrary_edges(12), center in 0usize..12) {
            let adj = CsrMatrix::from_edges(12, &edges).symmetrize();
            let features = Matrix::zeros(12, 3);
            let split = DataSplit { train: (0..12).collect(), val: vec![], test: vec![] };
            let g = Graph::new("prop", adj, features, vec![0; 12], 1, split, TaskSetting::Transductive);
            let sub = k_hop_subgraph(&g, center, 2, None);
            prop_assert_eq!(sub.nodes[0], center);
            prop_assert!(sub.num_nodes() <= 12);
            prop_assert_eq!(sub.adjacency.rows(), sub.num_nodes());
        }

        #[test]
        fn induced_subgraph_never_gains_edges(edges in arbitrary_edges(10)) {
            let adj = CsrMatrix::from_edges(10, &edges).symmetrize();
            let nodes: Vec<usize> = (0..5).collect();
            let sub = adj.induced_submatrix(&nodes);
            prop_assert!(sub.nnz() <= adj.nnz());
        }

        #[test]
        fn homophily_is_a_fraction(edges in arbitrary_edges(15)) {
            let adj = CsrMatrix::from_edges(15, &edges).symmetrize();
            let features = Matrix::zeros(15, 2);
            let labels: Vec<usize> = (0..15).map(|i| i % 3).collect();
            let split = DataSplit { train: (0..15).collect(), val: vec![], test: vec![] };
            let g = Graph::new("prop", adj, features, labels, 3, split, TaskSetting::Transductive);
            let h = g.edge_homophily();
            prop_assert!((0.0..=1.0).contains(&h));
        }
    }
}
