//! GraphSAGE with mean aggregation (Hamilton et al., NeurIPS 2017).
//!
//! Each layer combines a self transform with a transform of the aggregated
//! neighbourhood: `H^{(l+1)} = ReLU(H^{(l)} W_self + (Â H^{(l)}) W_neigh + b)`.

use rand::rngs::StdRng;

use bgc_tensor::init::xavier_uniform;
use bgc_tensor::{Matrix, Tape, Var};

use crate::adjacency::AdjacencyRef;
use crate::model::{ForwardPass, GnnModel};

/// A multi-layer GraphSAGE model.
#[derive(Clone, Debug)]
pub struct GraphSage {
    self_weights: Vec<Matrix>,
    neigh_weights: Vec<Matrix>,
    biases: Vec<Matrix>,
    out_dim: usize,
}

impl GraphSage {
    /// Builds a GraphSAGE model with `num_layers >= 1` layers.
    pub fn new(
        in_dim: usize,
        hidden_dim: usize,
        out_dim: usize,
        num_layers: usize,
        rng: &mut StdRng,
    ) -> Self {
        let num_layers = num_layers.max(1);
        let mut dims = vec![in_dim];
        for _ in 1..num_layers {
            dims.push(hidden_dim);
        }
        dims.push(out_dim);
        let mut self_weights = Vec::new();
        let mut neigh_weights = Vec::new();
        let mut biases = Vec::new();
        for l in 0..num_layers {
            self_weights.push(xavier_uniform(dims[l], dims[l + 1], rng));
            neigh_weights.push(xavier_uniform(dims[l], dims[l + 1], rng));
            biases.push(Matrix::zeros(1, dims[l + 1]));
        }
        Self {
            self_weights,
            neigh_weights,
            biases,
            out_dim,
        }
    }
}

impl GnnModel for GraphSage {
    fn name(&self) -> &'static str {
        "SAGE"
    }

    fn forward(&self, tape: &mut Tape, adj: &AdjacencyRef, x: Var) -> ForwardPass {
        let mut param_vars = Vec::new();
        let mut h = x;
        let last = self.self_weights.len() - 1;
        for l in 0..self.self_weights.len() {
            let ws = tape.leaf_copied(&self.self_weights[l]);
            let wn = tape.leaf_copied(&self.neigh_weights[l]);
            let b = tape.leaf_copied(&self.biases[l]);
            param_vars.extend_from_slice(&[ws, wn, b]);
            // On a bipartite block the self term only covers the layer's
            // destination nodes; on full adjacencies `dst_restrict` is the
            // identity (recording nothing, so the full-batch tape is
            // unchanged from the historical implementation).
            let h_dst = adj.dst_restrict(tape, h);
            let self_term = tape.matmul(h_dst, ws);
            let aggregated = adj.propagate(tape, h);
            let neigh_term = tape.matmul(aggregated, wn);
            let combined = tape.add(self_term, neigh_term);
            let pre = tape.add_bias(combined, b);
            h = if l < last { tape.relu(pre) } else { pre };
        }
        ForwardPass {
            logits: h,
            param_vars,
        }
    }

    fn parameters(&self) -> Vec<&Matrix> {
        self.self_weights
            .iter()
            .zip(&self.neigh_weights)
            .zip(&self.biases)
            .flat_map(|((ws, wn), b)| [ws, wn, b])
            .collect()
    }

    fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        self.self_weights
            .iter_mut()
            .zip(&mut self.neigh_weights)
            .zip(&mut self.biases)
            .flat_map(|((ws, wn), b)| [ws, wn, b])
            .collect()
    }

    fn output_dim(&self) -> usize {
        self.out_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_tensor::init::rng_from_seed;
    use bgc_tensor::CsrMatrix;

    #[test]
    fn forward_shape_and_parameter_count() {
        let mut rng = rng_from_seed(0);
        let mut sage = GraphSage::new(6, 8, 3, 2, &mut rng);
        let adj = AdjacencyRef::sparse(
            CsrMatrix::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
                .symmetrize()
                .gcn_normalize(),
        );
        let x = Matrix::ones(5, 6);
        assert_eq!(sage.logits(&adj, &x).shape(), (5, 3));
        assert_eq!(sage.parameters().len(), 6);
        assert_eq!(sage.parameters_mut().len(), 6);
    }

    #[test]
    fn self_term_distinguishes_sage_from_pure_propagation() {
        // On a graph with no edges (identity normalization), SAGE still
        // produces non-trivial logits through the self weights.
        let mut rng = rng_from_seed(1);
        let sage = GraphSage::new(4, 4, 2, 1, &mut rng);
        let adj = AdjacencyRef::sparse(CsrMatrix::zeros(3, 3).gcn_normalize());
        let x = Matrix::from_fn(3, 4, |r, c| (r + c) as f32);
        let logits = sage.logits(&adj, &x);
        assert!(logits.frobenius_norm() > 0.0);
    }
}
