//! Graph convolutional network (Kipf & Welling, ICLR 2017).
//!
//! `H^{(l+1)} = ReLU(Â H^{(l)} W^{(l)} + b^{(l)})`, with no activation after
//! the final layer.  This is the paper's default victim architecture and also
//! the backbone of the poisoned-node selector (Eq. 7).

use rand::rngs::StdRng;

use bgc_tensor::init::xavier_uniform;
use bgc_tensor::{Matrix, Tape, Var};

use crate::adjacency::AdjacencyRef;
use crate::model::{ForwardPass, GnnModel};

/// A multi-layer GCN.
#[derive(Clone, Debug)]
pub struct Gcn {
    weights: Vec<Matrix>,
    biases: Vec<Matrix>,
    out_dim: usize,
}

impl Gcn {
    /// Builds a GCN with `num_layers >= 1` graph-convolution layers.
    pub fn new(
        in_dim: usize,
        hidden_dim: usize,
        out_dim: usize,
        num_layers: usize,
        rng: &mut StdRng,
    ) -> Self {
        let num_layers = num_layers.max(1);
        let mut dims = Vec::with_capacity(num_layers + 1);
        dims.push(in_dim);
        for _ in 1..num_layers {
            dims.push(hidden_dim);
        }
        dims.push(out_dim);
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for l in 0..num_layers {
            weights.push(xavier_uniform(dims[l], dims[l + 1], rng));
            biases.push(Matrix::zeros(1, dims[l + 1]));
        }
        Self {
            weights,
            biases,
            out_dim,
        }
    }

    /// Number of graph-convolution layers.
    pub fn num_layers(&self) -> usize {
        self.weights.len()
    }

    /// Differentiable forward pass that also returns the hidden representation
    /// produced by the penultimate layer (used by the poisoned-node selector
    /// and the GCN-based trigger generator, Eq. 7 / Eq. 10).
    pub fn forward_with_hidden(
        &self,
        tape: &mut Tape,
        adj: &AdjacencyRef,
        x: Var,
    ) -> (ForwardPass, Var) {
        let mut param_vars = Vec::with_capacity(self.weights.len() * 2);
        let mut h = x;
        let mut hidden = x;
        let last = self.weights.len() - 1;
        for (l, (w, b)) in self.weights.iter().zip(self.biases.iter()).enumerate() {
            let wv = tape.leaf_copied(w);
            let bv = tape.leaf_copied(b);
            param_vars.push(wv);
            param_vars.push(bv);
            let propagated = adj.propagate(tape, h);
            let lin = tape.matmul(propagated, wv);
            let pre = tape.add_bias(lin, bv);
            if l < last {
                h = tape.relu(pre);
                hidden = h;
            } else {
                if last == 0 {
                    hidden = pre;
                }
                h = pre;
            }
        }
        (
            ForwardPass {
                logits: h,
                param_vars,
            },
            hidden,
        )
    }
}

impl GnnModel for Gcn {
    fn name(&self) -> &'static str {
        "GCN"
    }

    fn forward(&self, tape: &mut Tape, adj: &AdjacencyRef, x: Var) -> ForwardPass {
        self.forward_with_hidden(tape, adj, x).0
    }

    fn parameters(&self) -> Vec<&Matrix> {
        interleave(&self.weights, &self.biases)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        interleave_mut(&mut self.weights, &mut self.biases)
    }

    fn output_dim(&self) -> usize {
        self.out_dim
    }

    fn propagates_input_first(&self) -> bool {
        true
    }
}

/// Interleaves weights and biases as `[W0, b0, W1, b1, ...]` so the parameter
/// order matches the order in which `forward` registers tape variables.
pub(crate) fn interleave<'a>(weights: &'a [Matrix], biases: &'a [Matrix]) -> Vec<&'a Matrix> {
    weights
        .iter()
        .zip(biases.iter())
        .flat_map(|(w, b)| [w, b])
        .collect()
}

/// Mutable counterpart of [`interleave`].
pub(crate) fn interleave_mut<'a>(
    weights: &'a mut [Matrix],
    biases: &'a mut [Matrix],
) -> Vec<&'a mut Matrix> {
    weights
        .iter_mut()
        .zip(biases.iter_mut())
        .flat_map(|(w, b)| [w, b])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_tensor::init::rng_from_seed;
    use bgc_tensor::CsrMatrix;

    fn toy_adj() -> AdjacencyRef {
        AdjacencyRef::sparse(
            CsrMatrix::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
                .symmetrize()
                .gcn_normalize(),
        )
    }

    #[test]
    fn forward_shapes_are_correct() {
        let mut rng = rng_from_seed(0);
        let gcn = Gcn::new(5, 8, 3, 2, &mut rng);
        let adj = toy_adj();
        let x = Matrix::from_fn(4, 5, |r, c| (r + c) as f32 * 0.1);
        let logits = gcn.logits(&adj, &x);
        assert_eq!(logits.shape(), (4, 3));
        assert_eq!(gcn.num_layers(), 2);
        // weights + biases per layer
        assert_eq!(gcn.parameters().len(), 4);
    }

    #[test]
    fn single_layer_gcn_works() {
        let mut rng = rng_from_seed(1);
        let gcn = Gcn::new(5, 8, 2, 1, &mut rng);
        let adj = toy_adj();
        let x = Matrix::ones(4, 5);
        assert_eq!(gcn.logits(&adj, &x).shape(), (4, 2));
    }

    #[test]
    fn hidden_representation_has_hidden_dim() {
        let mut rng = rng_from_seed(2);
        let gcn = Gcn::new(5, 8, 3, 2, &mut rng);
        let adj = toy_adj();
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::ones(4, 5));
        let (_, hidden) = gcn.forward_with_hidden(&mut tape, &adj, x);
        assert_eq!(tape.shape(hidden), (4, 8));
    }

    #[test]
    fn parameters_receive_gradients() {
        let mut rng = rng_from_seed(3);
        let gcn = Gcn::new(5, 4, 2, 2, &mut rng);
        let adj = toy_adj();
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::ones(4, 5));
        let pass = gcn.forward(&mut tape, &adj, x);
        let loss = tape.softmax_cross_entropy(pass.logits, &[0, 1, 0, 1]);
        let grads = tape.backward(loss);
        for &pv in &pass.param_vars {
            assert!(grads.get(pv).is_some(), "parameter missing gradient");
        }
    }
}
