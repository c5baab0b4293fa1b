//! Synthetic structure generator used by GCond.
//!
//! GCond parameterizes the condensed adjacency as a function of the synthetic
//! features, `A'_{ij} = g_phi(x'_i, x'_j)`.  The original implementation uses
//! a pairwise MLP; here a low-rank bilinear form is used instead:
//! `A' = sigmoid(s * (X'W)(X'W)^T)`, which preserves the two properties the
//! attack and the evaluation rely on — the structure is (a) a differentiable
//! function of `X'` and (b) symmetric — at a fraction of the cost.  The
//! substitution is listed under "Substitutions" in the workspace README.

use rand::rngs::StdRng;

use bgc_tensor::init::xavier_uniform;
use bgc_tensor::{Matrix, Tape, Var};

/// Low-rank bilinear structure generator `A' = sigmoid(s * (X'W)(X'W)^T)`.
#[derive(Clone, Debug)]
pub struct StructureGenerator {
    weight: Matrix,
    scale: f32,
}

impl StructureGenerator {
    /// Creates a generator mapping `d`-dimensional features to a rank-`rank`
    /// embedding.
    pub fn new(feature_dim: usize, rank: usize, rng: &mut StdRng) -> Self {
        Self {
            weight: xavier_uniform(feature_dim, rank.max(1), rng),
            scale: 1.0,
        }
    }

    /// Differentiable forward pass producing the dense adjacency (values in
    /// `(0, 1)`) and the tape handles of the generator parameters.
    pub fn forward(&self, tape: &mut Tape, x: Var) -> (Var, Vec<Var>) {
        let w = tape.leaf_copied(&self.weight);
        let h = tape.matmul(x, w);
        let ht = tape.transpose(h);
        let logits = tape.matmul(h, ht);
        let scaled = tape.scale(logits, self.scale);
        let adj = tape.sigmoid(scaled);
        (adj, vec![w])
    }

    /// Non-differentiable adjacency with the diagonal zeroed and entries below
    /// `threshold` dropped (used when the condensed graph is materialized).
    pub fn materialize(&self, x: &Matrix, threshold: f32) -> Matrix {
        let h = x.matmul(&self.weight);
        let logits = h.matmul_transpose(&h).scale(self.scale);
        let mut adj = logits.map(|v| 1.0 / (1.0 + (-v).exp()));
        let n = adj.rows();
        for r in 0..n {
            adj.set(r, r, 0.0);
            for c in 0..n {
                if adj.get(r, c) < threshold {
                    adj.set(r, c, 0.0);
                }
            }
        }
        // Enforce exact symmetry (floating point noise from the two matmuls).
        for r in 0..n {
            for c in (r + 1)..n {
                let v = 0.5 * (adj.get(r, c) + adj.get(c, r));
                adj.set(r, c, v);
                adj.set(c, r, v);
            }
        }
        adj
    }

    /// Immutable parameter views.
    pub fn parameters(&self) -> Vec<&Matrix> {
        vec![&self.weight]
    }

    /// Mutable parameter views.
    pub fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.weight]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_tensor::init::{randn, rng_from_seed};

    #[test]
    fn materialized_adjacency_is_symmetric_with_zero_diagonal() {
        let mut rng = rng_from_seed(0);
        let gen = StructureGenerator::new(6, 4, &mut rng);
        let x = randn(5, 6, 0.0, 1.0, &mut rng);
        let adj = gen.materialize(&x, 0.0);
        for r in 0..5 {
            assert_eq!(adj.get(r, r), 0.0);
            for c in 0..5 {
                assert!((adj.get(r, c) - adj.get(c, r)).abs() < 1e-6);
                assert!((0.0..=1.0).contains(&adj.get(r, c)));
            }
        }
    }

    #[test]
    fn threshold_sparsifies() {
        let mut rng = rng_from_seed(1);
        let gen = StructureGenerator::new(4, 4, &mut rng);
        let x = randn(6, 4, 0.0, 1.0, &mut rng);
        let dense = gen.materialize(&x, 0.0);
        let sparse = gen.materialize(&x, 0.9);
        let count = |m: &Matrix| m.data().iter().filter(|&&v| v > 0.0).count();
        assert!(count(&sparse) <= count(&dense));
    }

    #[test]
    fn forward_is_differentiable_wrt_features() {
        let mut rng = rng_from_seed(2);
        let gen = StructureGenerator::new(4, 3, &mut rng);
        let x0 = randn(4, 4, 0.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(x0);
        let (adj, params) = gen.forward(&mut tape, x);
        let loss = tape.sum_all(adj);
        let grads = tape.backward(loss);
        assert!(grads.get(x).is_some(), "features must receive a gradient");
        assert!(
            grads.get(params[0]).is_some(),
            "generator weight must receive a gradient"
        );
    }

    #[test]
    fn similar_features_get_stronger_links() {
        let mut rng = rng_from_seed(3);
        let gen = StructureGenerator::new(3, 3, &mut rng);
        // Two identical rows and one very different row.
        let x = Matrix::from_rows(&[
            vec![1.0, 2.0, -1.0],
            vec![1.0, 2.0, -1.0],
            vec![-2.0, -1.0, 3.0],
        ]);
        let adj = gen.materialize(&x, 0.0);
        assert!(
            adj.get(0, 1) > adj.get(0, 2),
            "identical rows should be more strongly connected"
        );
    }
}
