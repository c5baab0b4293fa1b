//! The node-classification graph type `G = {A, X, Y}` used throughout the
//! paper (Section II), together with its train/val/test split.

use std::sync::Arc;

use bgc_tensor::{CsrMatrix, Matrix};

use crate::splits::DataSplit;

/// Whether a dataset is used transductively (the full graph is visible at
/// training time; Cora, Citeseer) or inductively (only the training subgraph
/// is visible; Flickr, Reddit).  Mirrors Table I of the paper.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TaskSetting {
    /// Full graph visible during training.
    Transductive,
    /// Only the training subgraph visible during training.
    Inductive,
}

/// A node-classification graph `G = {A, X, Y}` plus its split.
#[derive(Clone, Debug)]
pub struct Graph {
    /// Human-readable dataset name (e.g. "cora").
    pub name: String,
    /// Symmetric, unweighted adjacency matrix `A`.
    pub adjacency: Arc<CsrMatrix>,
    /// GCN-normalized adjacency `D^{-1/2}(A + I)D^{-1/2}` (cached).
    pub normalized: Arc<CsrMatrix>,
    /// Node feature matrix `X` (`N x d`).
    pub features: Arc<Matrix>,
    /// Node labels `Y` in `0..num_classes`.
    pub labels: Vec<usize>,
    /// Number of label classes `C`.
    pub num_classes: usize,
    /// Train/validation/test node indices.
    pub split: DataSplit,
    /// Transductive or inductive evaluation protocol.
    pub setting: TaskSetting,
}

impl Graph {
    /// Builds a graph, validating shapes and caching the GCN normalization.
    ///
    /// # Panics
    /// Panics when the adjacency is not square, when the feature/label counts
    /// disagree with the adjacency size, or when a label is out of range.
    pub fn new(
        name: impl Into<String>,
        adjacency: CsrMatrix,
        features: Matrix,
        labels: Vec<usize>,
        num_classes: usize,
        split: DataSplit,
        setting: TaskSetting,
    ) -> Self {
        assert_eq!(
            adjacency.rows(),
            adjacency.cols(),
            "adjacency must be square"
        );
        let n = adjacency.rows();
        assert_eq!(features.rows(), n, "feature rows must equal node count");
        assert_eq!(labels.len(), n, "label count must equal node count");
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "labels must lie in 0..{}",
            num_classes
        );
        split.validate(n);
        let normalized = Arc::new(adjacency.gcn_normalize());
        Self {
            name: name.into(),
            adjacency: Arc::new(adjacency),
            normalized,
            features: Arc::new(features),
            labels,
            num_classes,
            split,
            setting,
        }
    }

    /// Number of nodes `N`.
    pub fn num_nodes(&self) -> usize {
        self.adjacency.rows()
    }

    /// Number of undirected edges (each counted once).
    pub fn num_edges(&self) -> usize {
        self.adjacency.nnz() / 2
    }

    /// Feature dimensionality `d`.
    pub fn num_features(&self) -> usize {
        self.features.cols()
    }

    /// Unweighted degree of every node.
    pub fn degrees(&self) -> Vec<usize> {
        self.adjacency.degrees()
    }

    /// Labels restricted to the given node indices.
    pub fn labels_of(&self, nodes: &[usize]) -> Vec<usize> {
        nodes.iter().map(|&i| self.labels[i]).collect()
    }

    /// Node indices of the training split belonging to class `c`.
    pub fn train_nodes_of_class(&self, c: usize) -> Vec<usize> {
        self.split
            .train
            .iter()
            .copied()
            .filter(|&i| self.labels[i] == c)
            .collect()
    }

    /// Number of training nodes per class.
    pub fn train_class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &i in &self.split.train {
            counts[self.labels[i]] += 1;
        }
        counts
    }

    /// K-step propagated features `Â^k X` (the SGC representation).
    pub fn propagated_features(&self, k: usize) -> Matrix {
        let mut z = (*self.features).clone();
        for _ in 0..k {
            z = self.normalized.spmm(&z);
        }
        z
    }

    /// The subgraph induced by the training nodes, relabelled `0..train.len()`.
    /// This is the graph the condensation method sees in the inductive
    /// setting.
    pub fn training_subgraph(&self) -> Graph {
        let nodes = self.split.train.clone();
        let adjacency = self.adjacency.induced_submatrix(&nodes);
        let features = self.features.select_rows(&nodes);
        let labels = self.labels_of(&nodes);
        let split = DataSplit {
            train: (0..nodes.len()).collect(),
            val: Vec::new(),
            test: Vec::new(),
        };
        Graph::new(
            format!("{}-train", self.name),
            adjacency,
            features,
            labels,
            self.num_classes,
            split,
            self.setting,
        )
    }

    /// Returns a new graph with the same topology but different features and
    /// labels (used when poisoning the original graph).
    pub fn with_features_and_labels(&self, features: Matrix, labels: Vec<usize>) -> Graph {
        Graph::new(
            self.name.clone(),
            (*self.adjacency).clone(),
            features,
            labels,
            self.num_classes,
            self.split.clone(),
            self.setting,
        )
    }

    /// Returns a new graph with extra nodes appended (features + labels) and
    /// extra undirected edges.  Used by the trigger attachment operator to
    /// build the poisoned graph `G_P`.
    pub fn with_appended_nodes(
        &self,
        new_features: &Matrix,
        new_labels: &[usize],
        new_edges: &[(usize, usize)],
        relabel: &[(usize, usize)],
        extra_train: &[usize],
    ) -> Graph {
        assert_eq!(new_features.rows(), new_labels.len());
        let n_old = self.num_nodes();
        let n_new = n_old + new_features.rows();
        let mut triplets = self.adjacency.triplets();
        for &(u, v) in new_edges {
            assert!(u < n_new && v < n_new, "appended edge out of bounds");
            triplets.push((u, v, 1.0));
            triplets.push((v, u, 1.0));
        }
        let adjacency = CsrMatrix::from_triplets(n_new, n_new, &triplets);
        let features = self.features.vstack(new_features);
        let mut labels = self.labels.clone();
        labels.extend_from_slice(new_labels);
        for &(node, label) in relabel {
            assert!(label < self.num_classes, "relabel class out of range");
            labels[node] = label;
        }
        let mut split = self.split.clone();
        split.train.extend_from_slice(extra_train);
        Graph::new(
            self.name.clone(),
            adjacency,
            features,
            labels,
            self.num_classes,
            split,
            self.setting,
        )
    }

    /// A process-independent FNV-1a fingerprint of the full graph content:
    /// name, setting, labels, splits, every feature bit and every adjacency
    /// entry.  Two graphs with equal fingerprints hold bit-identical data in
    /// any process — this is the dataset input the content-addressed
    /// artifact store keys on.
    pub fn content_fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut put = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for &b in self.name.as_bytes() {
            put(b as u64);
        }
        put(self.num_classes as u64);
        put(matches!(self.setting, TaskSetting::Inductive) as u64);
        put(self.labels.len() as u64);
        for &l in &self.labels {
            put(l as u64);
        }
        for part in [&self.split.train, &self.split.val, &self.split.test] {
            put(part.len() as u64);
            for &i in part.iter() {
                put(i as u64);
            }
        }
        put(self.features.rows() as u64);
        put(self.features.cols() as u64);
        for &x in self.features.data() {
            put(x.to_bits() as u64);
        }
        put(self.adjacency.rows() as u64);
        put(self.adjacency.nnz() as u64);
        for r in 0..self.adjacency.rows() {
            put(self.adjacency.row_nnz(r) as u64);
            for (c, v) in self.adjacency.row_iter(r) {
                put(c as u64);
                put(v.to_bits() as u64);
            }
        }
        h
    }

    /// Edge homophily: fraction of edges connecting same-class endpoints.
    pub fn edge_homophily(&self) -> f32 {
        let mut same = 0usize;
        let mut total = 0usize;
        for (r, c, _) in self.adjacency.triplets() {
            if r < c {
                total += 1;
                if self.labels[r] == self.labels[c] {
                    same += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            same as f32 / total as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_graph() -> Graph {
        // 6 nodes, 2 classes, a small homophilous graph.
        let edges = vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)];
        let adj = CsrMatrix::from_edges(6, &edges).symmetrize();
        let features = Matrix::from_fn(6, 4, |r, c| if r < 3 { c as f32 } else { -(c as f32) });
        let labels = vec![0, 0, 0, 1, 1, 1];
        let split = DataSplit {
            train: vec![0, 3],
            val: vec![1, 4],
            test: vec![2, 5],
        };
        Graph::new(
            "toy",
            adj,
            features,
            labels,
            2,
            split,
            TaskSetting::Transductive,
        )
    }

    #[test]
    fn basic_accessors() {
        let g = toy_graph();
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 7);
        assert_eq!(g.num_features(), 4);
        assert_eq!(g.train_class_counts(), vec![1, 1]);
        assert_eq!(g.train_nodes_of_class(1), vec![3]);
    }

    #[test]
    fn homophily_of_toy_graph() {
        let g = toy_graph();
        // 6 of the 7 edges connect same-class nodes.
        assert!((g.edge_homophily() - 6.0 / 7.0).abs() < 1e-6);
    }

    #[test]
    fn propagated_features_have_right_shape_and_smooth() {
        let g = toy_graph();
        let z = g.propagated_features(2);
        assert_eq!(z.shape(), (6, 4));
        // Propagation is an averaging operator: values stay bounded by input range.
        assert!(z.max() <= g.features.max() + 1e-4);
    }

    #[test]
    fn training_subgraph_relabels() {
        let g = toy_graph();
        let sub = g.training_subgraph();
        assert_eq!(sub.num_nodes(), 2);
        assert_eq!(sub.labels, vec![0, 1]);
        assert_eq!(sub.split.train, vec![0, 1]);
    }

    #[test]
    fn appended_nodes_extend_graph() {
        let g = toy_graph();
        let trig_features = Matrix::ones(2, 4);
        let poisoned = g.with_appended_nodes(
            &trig_features,
            &[1, 1],
            &[(0, 6), (6, 7)],
            &[(0, 1)],
            &[6, 7],
        );
        assert_eq!(poisoned.num_nodes(), 8);
        assert_eq!(poisoned.labels[0], 1, "relabelled poisoned node");
        assert_eq!(poisoned.labels[6], 1);
        assert!(poisoned.adjacency.get(6, 0) > 0.0);
        assert!(poisoned.split.train.contains(&7));
    }

    #[test]
    fn content_fingerprint_tracks_content_not_identity() {
        let g = toy_graph();
        let same = toy_graph();
        assert_eq!(
            g.content_fingerprint(),
            same.content_fingerprint(),
            "independently built identical graphs fingerprint equally"
        );
        let clone = g.clone();
        assert_eq!(g.content_fingerprint(), clone.content_fingerprint());
        let mut features = (*g.features).clone();
        features.set(0, 0, 42.0);
        let edited = g.with_features_and_labels(features, g.labels.clone());
        assert_ne!(g.content_fingerprint(), edited.content_fingerprint());
        let relabeled = g.with_features_and_labels((*g.features).clone(), vec![1, 0, 0, 1, 1, 1]);
        assert_ne!(g.content_fingerprint(), relabeled.content_fingerprint());
    }

    #[test]
    #[should_panic(expected = "labels must lie")]
    fn rejects_out_of_range_labels() {
        let adj = CsrMatrix::identity(2);
        let features = Matrix::zeros(2, 2);
        let split = DataSplit {
            train: vec![0],
            val: vec![],
            test: vec![1],
        };
        let _ = Graph::new(
            "bad",
            adj,
            features,
            vec![0, 5],
            2,
            split,
            TaskSetting::Transductive,
        );
    }
}
