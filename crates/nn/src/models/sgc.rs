//! Simplified graph convolution (Wu et al., ICML 2019): `Â^K X W + b`.
//!
//! SGC is the condensation backbone the paper defaults to and the surrogate
//! model assumed by BGC's convergence analysis (Section IV-D).

use rand::rngs::StdRng;

use bgc_tensor::init::xavier_uniform;
use bgc_tensor::{Matrix, Tape, Var};

use crate::adjacency::AdjacencyRef;
use crate::model::{ForwardPass, GnnModel};

/// An SGC model: `k` propagation steps followed by a single linear layer.
#[derive(Clone, Debug)]
pub struct Sgc {
    weight: Matrix,
    bias: Matrix,
    k: usize,
    out_dim: usize,
}

impl Sgc {
    /// Builds an SGC model with `k >= 1` propagation steps.
    pub fn new(in_dim: usize, out_dim: usize, k: usize, rng: &mut StdRng) -> Self {
        Self {
            weight: xavier_uniform(in_dim, out_dim, rng),
            bias: Matrix::zeros(1, out_dim),
            k: k.max(1),
            out_dim,
        }
    }

    /// Number of propagation steps `K`.
    pub fn propagation_steps(&self) -> usize {
        self.k
    }
}

impl GnnModel for Sgc {
    fn name(&self) -> &'static str {
        "SGC"
    }

    fn forward(&self, tape: &mut Tape, adj: &AdjacencyRef, x: Var) -> ForwardPass {
        let wv = tape.leaf_copied(&self.weight);
        let bv = tape.leaf_copied(&self.bias);
        let mut h = x;
        for _ in 0..self.k {
            h = adj.propagate(tape, h);
        }
        let lin = tape.matmul(h, wv);
        let logits = tape.add_bias(lin, bv);
        ForwardPass {
            logits,
            param_vars: vec![wv, bv],
        }
    }

    fn parameters(&self) -> Vec<&Matrix> {
        vec![&self.weight, &self.bias]
    }

    fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn output_dim(&self) -> usize {
        self.out_dim
    }

    fn propagates_input_first(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_tensor::init::rng_from_seed;
    use bgc_tensor::CsrMatrix;

    #[test]
    fn forward_equals_propagated_linear_map() {
        let mut rng = rng_from_seed(0);
        let sgc = Sgc::new(3, 2, 2, &mut rng);
        let adj_csr = CsrMatrix::from_edges(5, &[(0, 1), (1, 2), (3, 4)])
            .symmetrize()
            .gcn_normalize();
        let adj = AdjacencyRef::sparse(adj_csr.clone());
        let x = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32 * 0.1);
        let logits = sgc.logits(&adj, &x);
        let z = adj_csr.spmm(&adj_csr.spmm(&x));
        let expected = z.matmul(&sgc.weight);
        assert!(logits.approx_eq(&expected, 1e-5));
    }

    #[test]
    fn k_is_clamped_to_one() {
        let mut rng = rng_from_seed(1);
        let sgc = Sgc::new(3, 2, 0, &mut rng);
        assert_eq!(sgc.propagation_steps(), 1);
    }
}
