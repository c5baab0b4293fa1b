//! Chebyshev spectral graph convolution (Defferrard et al., NeurIPS 2016),
//! restricted to polynomial order K = 2.
//!
//! Each layer computes `H' = T_0(L̃) H W_0 + T_1(L̃) H W_1 + b` where
//! `T_0 = I` and `T_1(L̃) ≈ -Â` (the rescaled Laplacian approximation used by
//! Kipf & Welling).  Non-final layers apply ReLU.

use rand::rngs::StdRng;

use bgc_tensor::init::xavier_uniform;
use bgc_tensor::{Matrix, Tape, Var};

use crate::adjacency::AdjacencyRef;
use crate::model::{ForwardPass, GnnModel};

/// A multi-layer ChebyNet (order-2 Chebyshev filters).
#[derive(Clone, Debug)]
pub struct ChebyNet {
    w0: Vec<Matrix>,
    w1: Vec<Matrix>,
    biases: Vec<Matrix>,
    out_dim: usize,
}

impl ChebyNet {
    /// Builds a ChebyNet with `num_layers >= 1` layers.
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
        let mut w0 = Vec::new();
        let mut w1 = Vec::new();
        let mut biases = Vec::new();
        for l in 0..num_layers {
            w0.push(xavier_uniform(dims[l], dims[l + 1], rng));
            w1.push(xavier_uniform(dims[l], dims[l + 1], rng));
            biases.push(Matrix::zeros(1, dims[l + 1]));
        }
        Self {
            w0,
            w1,
            biases,
            out_dim,
        }
    }
}

impl GnnModel for ChebyNet {
    fn name(&self) -> &'static str {
        "Cheby"
    }

    fn forward(&self, tape: &mut Tape, adj: &AdjacencyRef, x: Var) -> ForwardPass {
        let mut param_vars = Vec::new();
        let mut h = x;
        let last = self.w0.len() - 1;
        for l in 0..self.w0.len() {
            let w0 = tape.leaf_copied(&self.w0[l]);
            let w1 = tape.leaf_copied(&self.w1[l]);
            let b = tape.leaf_copied(&self.biases[l]);
            param_vars.extend_from_slice(&[w0, w1, b]);
            // On a bipartite block the identity term only covers the layer's
            // destination nodes; on full adjacencies `dst_restrict` is the
            // identity and records nothing (full-batch tapes unchanged).
            let h_dst = adj.dst_restrict(tape, h);
            let identity_term = tape.matmul(h_dst, w0);
            let propagated = adj.propagate(tape, h);
            let neg_propagated = tape.scale(propagated, -1.0);
            let laplacian_term = tape.matmul(neg_propagated, w1);
            let combined = tape.add(identity_term, laplacian_term);
            let pre = tape.add_bias(combined, b);
            h = if l < last { tape.relu(pre) } else { pre };
        }
        ForwardPass {
            logits: h,
            param_vars,
        }
    }

    fn parameters(&self) -> Vec<&Matrix> {
        self.w0
            .iter()
            .zip(&self.w1)
            .zip(&self.biases)
            .flat_map(|((w0, w1), b)| [w0, w1, b])
            .collect()
    }

    fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        self.w0
            .iter_mut()
            .zip(&mut self.w1)
            .zip(&mut self.biases)
            .flat_map(|((w0, w1), b)| [w0, w1, b])
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
    fn forward_shape_and_parameters() {
        let mut rng = rng_from_seed(0);
        let mut model = ChebyNet::new(5, 7, 3, 2, &mut rng);
        let adj = AdjacencyRef::sparse(
            CsrMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
                .symmetrize()
                .gcn_normalize(),
        );
        assert_eq!(model.logits(&adj, &Matrix::ones(4, 5)).shape(), (4, 3));
        assert_eq!(model.parameters().len(), 6);
        assert_eq!(model.parameters_mut().len(), 6);
    }

    #[test]
    fn structure_changes_the_output() {
        let mut rng = rng_from_seed(1);
        let model = ChebyNet::new(4, 4, 2, 1, &mut rng);
        let x = Matrix::from_fn(4, 4, |r, c| (r + c) as f32 * 0.3);
        let with_edges = AdjacencyRef::sparse(
            CsrMatrix::from_edges(4, &[(0, 1), (2, 3)])
                .symmetrize()
                .gcn_normalize(),
        );
        let no_edges = AdjacencyRef::sparse(CsrMatrix::zeros(4, 4).gcn_normalize());
        let a = model.logits(&with_edges, &x);
        let b = model.logits(&no_edges, &x);
        assert!(!a.approx_eq(&b, 1e-6), "ChebyNet must react to structure");
    }
}
