//! The condensed (synthetic) graph `S = {A', X', Y'}` produced by a graph
//! condensation method, and on which the victim GNN is trained.

use bgc_tensor::Matrix;

/// A small synthetic graph with `N' << N` nodes.
///
/// The adjacency is stored densely: condensed graphs contain at most a few
/// hundred nodes (e.g. Reddit condenses to 154 nodes in the paper), so a
/// dense `N' x N'` matrix is both simpler and faster than sparse storage.
#[derive(Clone, Debug)]
pub struct CondensedGraph {
    /// Synthetic node features `X'` (`N' x d`).
    pub features: Matrix,
    /// Synthetic (weighted, symmetric) adjacency `A'` (`N' x N'`).
    pub adjacency: Matrix,
    /// Synthetic labels `Y'`.
    pub labels: Vec<usize>,
    /// Number of classes (shared with the original graph).
    pub num_classes: usize,
}

impl CondensedGraph {
    /// Creates a condensed graph, validating shapes.
    pub fn new(
        features: Matrix,
        adjacency: Matrix,
        labels: Vec<usize>,
        num_classes: usize,
    ) -> Self {
        let n = features.rows();
        assert_eq!(adjacency.shape(), (n, n), "adjacency must be N' x N'");
        assert_eq!(labels.len(), n, "label count must equal node count");
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "labels must lie in 0..{}",
            num_classes
        );
        Self {
            features,
            adjacency,
            labels,
            num_classes,
        }
    }

    /// A structure-free condensed graph (`A' = I`), as produced by DC-Graph
    /// and GCond-X.
    pub fn structure_free(features: Matrix, labels: Vec<usize>, num_classes: usize) -> Self {
        let n = features.rows();
        Self::new(features, Matrix::identity(n), labels, num_classes)
    }

    /// Number of synthetic nodes `N'`.
    pub fn num_nodes(&self) -> usize {
        self.features.rows()
    }

    /// Feature dimensionality `d`.
    pub fn num_features(&self) -> usize {
        self.features.cols()
    }

    /// Whether the graph carries non-trivial structure (any off-diagonal
    /// adjacency weight above `tol`).
    pub fn has_structure(&self, tol: f32) -> bool {
        let n = self.num_nodes();
        for r in 0..n {
            for c in 0..n {
                if r != c && self.adjacency.get(r, c).abs() > tol {
                    return true;
                }
            }
        }
        false
    }

    /// GCN-normalized dense adjacency `D^{-1/2}(A' + I)D^{-1/2}`.
    pub fn normalized_adjacency(&self) -> Matrix {
        let n = self.num_nodes();
        let mut a = self.adjacency.clone();
        for i in 0..n {
            let v = a.get(i, i);
            a.set(i, i, v + 1.0);
        }
        let mut deg = vec![0.0f32; n];
        for (r, d) in deg.iter_mut().enumerate() {
            *d = a.row(r).iter().sum::<f32>();
        }
        let inv_sqrt: Vec<f32> = deg
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        Matrix::from_fn(n, n, |r, c| a.get(r, c) * inv_sqrt[r] * inv_sqrt[c])
    }

    /// Number of synthetic nodes per class.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Returns a copy with edges whose endpoint cosine similarity falls in the
    /// lowest `fraction` removed (used by the Prune defense).
    pub fn prune_low_similarity_edges(&self, fraction: f32) -> CondensedGraph {
        let n = self.num_nodes();
        let mut sims: Vec<(f32, usize, usize)> = Vec::new();
        for r in 0..n {
            for c in (r + 1)..n {
                if self.adjacency.get(r, c).abs() > 1e-6 {
                    let sim = Matrix::cosine_similarity(self.features.row(r), self.features.row(c));
                    sims.push((sim, r, c));
                }
            }
        }
        sims.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let to_remove = ((sims.len() as f32) * fraction).floor() as usize;
        let mut adjacency = self.adjacency.clone();
        for &(_, r, c) in sims.iter().take(to_remove) {
            adjacency.set(r, c, 0.0);
            adjacency.set(c, r, 0.0);
        }
        CondensedGraph::new(
            self.features.clone(),
            adjacency,
            self.labels.clone(),
            self.num_classes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> CondensedGraph {
        let features = Matrix::new(3, 2, vec![1.0, 0.0, 1.0, 0.1, -1.0, 0.5]);
        let adjacency = Matrix::new(3, 3, vec![0.0, 0.8, 0.2, 0.8, 0.0, 0.0, 0.2, 0.0, 0.0]);
        CondensedGraph::new(features, adjacency, vec![0, 0, 1], 2)
    }

    #[test]
    fn structure_free_uses_identity() {
        let g = CondensedGraph::structure_free(Matrix::ones(4, 3), vec![0, 1, 0, 1], 2);
        assert!(!g.has_structure(1e-6));
        assert_eq!(g.adjacency.get(2, 2), 1.0);
    }

    #[test]
    fn normalized_adjacency_is_symmetric_and_bounded() {
        let g = toy();
        let norm = g.normalized_adjacency();
        for r in 0..3 {
            for c in 0..3 {
                assert!((norm.get(r, c) - norm.get(c, r)).abs() < 1e-6);
                assert!(norm.get(r, c) <= 1.0 + 1e-6);
            }
        }
        assert!(norm.get(0, 0) > 0.0, "self loops added");
    }

    #[test]
    fn class_counts_are_correct() {
        assert_eq!(toy().class_counts(), vec![2, 1]);
    }

    #[test]
    fn prune_removes_lowest_similarity_edges() {
        let g = toy();
        // Edge (0,1) has high similarity, (0,2) low; pruning 50% removes (0,2).
        let pruned = g.prune_low_similarity_edges(0.5);
        assert_eq!(pruned.adjacency.get(0, 2), 0.0);
        assert!(pruned.adjacency.get(0, 1) > 0.0);
    }

    #[test]
    #[should_panic(expected = "adjacency must be")]
    fn rejects_bad_adjacency_shape() {
        let _ = CondensedGraph::new(Matrix::ones(3, 2), Matrix::ones(2, 2), vec![0, 0, 0], 1);
    }
}
