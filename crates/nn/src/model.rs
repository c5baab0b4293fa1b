//! The [`GnnModel`] trait shared by every architecture, plus the
//! architecture registry used by the transfer study (Table III).

use std::fmt;
use std::str::FromStr;

use rand::rngs::StdRng;

use bgc_tensor::{Matrix, Tape, Var};

use crate::adjacency::AdjacencyRef;
use crate::models::{appnp::Appnp, cheby::ChebyNet, gcn::Gcn, mlp::Mlp, sage::GraphSage, sgc::Sgc};

/// The result of a differentiable forward pass: output logits plus the tape
/// handles of every parameter (in the same order as [`GnnModel::parameters`]),
/// so the caller can read their gradients after `backward`.
pub struct ForwardPass {
    /// Logits for every node (`N x C`).
    pub logits: Var,
    /// Tape variables of the model parameters.
    pub param_vars: Vec<Var>,
}

/// A trainable graph neural network for node classification.
///
/// Implementations register their parameters on the caller's [`Tape`] during
/// [`GnnModel::forward`], which keeps the training loop generic across
/// architectures and lets upstream differentiable computations (e.g. the BGC
/// trigger generator producing some of the input features) share the tape.
///
/// # Contract for model authors (pooled-tape engine)
///
/// The training loop calls `forward` on the **same** tape every epoch,
/// [`Tape::reset`]-ing it in between, so implementations must record
/// per-epoch state accordingly:
///
/// * register parameters with [`Tape::leaf_copied`] (a pool-backed copy —
///   parameters change between epochs and must be snapshotted), never by
///   stashing `Var`s across epochs;
/// * inputs arrive as an already-recorded `x: Var` — typically a shared
///   [`Tape::const_leaf`] the loop recorded once — and implementations must
///   not assume they can mutate or retain it;
/// * epoch-invariant constants a model needs (fixed adjacencies, masks)
///   should be held as `Arc<Matrix>` and recorded via [`Tape::const_leaf`] /
///   [`Tape::hadamard_const`]-style constant ops so they are shared, not
///   copied.
pub trait GnnModel {
    /// Human-readable architecture name (e.g. `"GCN"`).
    fn name(&self) -> &'static str;

    /// Differentiable forward pass on the given adjacency and feature node.
    fn forward(&self, tape: &mut Tape, adj: &AdjacencyRef, x: Var) -> ForwardPass;

    /// Immutable views of the parameter matrices.
    fn parameters(&self) -> Vec<&Matrix>;

    /// Mutable views of the parameter matrices (same order).
    fn parameters_mut(&mut self) -> Vec<&mut Matrix>;

    /// Number of output classes.
    fn output_dim(&self) -> usize;

    /// Whether [`GnnModel::forward`] reads its input `x` only through a
    /// first [`AdjacencyRef::propagate`].  That first product `Â · x`
    /// involves no parameter, so a caller may compute it ahead of time and
    /// hand the model its output under [`AdjacencyRef::after_first_step`]:
    /// the sampled trainer gives each batch the first block's output rows
    /// of one `Â · X` per training run, and the victims' clean-accuracy
    /// pass shares one `Â · X` per evaluation.  The default `false` keeps
    /// the raw input, which models that read `x` directly (a self term, a
    /// skip connection, a per-node MLP) need.
    fn propagates_input_first(&self) -> bool {
        false
    }

    /// Non-differentiable prediction helper: runs a forward pass on a scratch
    /// tape and returns the raw logits matrix.
    fn logits(&self, adj: &AdjacencyRef, x: &Matrix) -> Matrix {
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let pass = self.forward(&mut tape, adj, xv);
        tape.value_ref(pass.logits).clone()
    }

    /// Predicted class per node.
    fn predict(&self, adj: &AdjacencyRef, x: &Matrix) -> Vec<usize> {
        self.logits(adj, x).argmax_rows()
    }

    /// [`GnnModel::predict`] on a caller-provided pooled tape (reset here):
    /// per-node evaluation loops reuse one tape's memory instead of building
    /// a fresh tape per forward pass.
    fn predict_on(&self, tape: &mut Tape, adj: &AdjacencyRef, x: &Matrix) -> Vec<usize> {
        tape.reset();
        let xv = tape.leaf_detached(x);
        let pass = self.forward(tape, adj, xv);
        tape.value_ref(pass.logits).argmax_rows()
    }

    /// Total number of scalar parameters.
    fn num_parameters(&self) -> usize {
        self.parameters().iter().map(|p| p.len()).sum()
    }
}

/// The GNN architectures evaluated in the transfer study (Table III).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GnnArchitecture {
    /// Graph convolutional network (Kipf & Welling).
    Gcn,
    /// GraphSAGE with mean aggregation.
    Sage,
    /// Simplified graph convolution (feature propagation + linear model).
    Sgc,
    /// Structure-agnostic multi-layer perceptron.
    Mlp,
    /// Personalised-PageRank propagation of MLP predictions.
    Appnp,
    /// Chebyshev spectral graph convolution (K = 2).
    Cheby,
}

impl GnnArchitecture {
    /// All architectures in the order of Table III.
    pub fn all() -> [GnnArchitecture; 6] {
        [
            GnnArchitecture::Gcn,
            GnnArchitecture::Sage,
            GnnArchitecture::Sgc,
            GnnArchitecture::Mlp,
            GnnArchitecture::Appnp,
            GnnArchitecture::Cheby,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            GnnArchitecture::Gcn => "GCN",
            GnnArchitecture::Sage => "SAGE",
            GnnArchitecture::Sgc => "SGC",
            GnnArchitecture::Mlp => "MLP",
            GnnArchitecture::Appnp => "APPNP",
            GnnArchitecture::Cheby => "Cheby",
        }
    }

    /// Number of message-passing (propagation) steps one forward pass of
    /// this architecture performs when built with `num_layers` layers, or
    /// `None` for propagation-free models (MLP).  This is the number of
    /// bipartite blocks — one fanout per step — a sampled training plan
    /// must provide for the model.
    pub fn propagation_depth(&self, num_layers: usize) -> Option<usize> {
        match self {
            GnnArchitecture::Mlp => None,
            GnnArchitecture::Appnp => Some(num_layers.max(2)),
            GnnArchitecture::Gcn
            | GnnArchitecture::Sage
            | GnnArchitecture::Sgc
            | GnnArchitecture::Cheby => Some(num_layers.max(1)),
        }
    }

    /// Parses a display name case-insensitively (CLI / config files).
    pub fn parse_name(s: &str) -> Option<Self> {
        GnnArchitecture::all()
            .into_iter()
            .find(|arch| arch.name().eq_ignore_ascii_case(s))
    }

    /// Builds an architecture instance with `num_layers` message-passing /
    /// hidden layers.
    pub fn build(
        &self,
        in_dim: usize,
        hidden_dim: usize,
        out_dim: usize,
        num_layers: usize,
        rng: &mut StdRng,
    ) -> Box<dyn GnnModel> {
        match self {
            GnnArchitecture::Gcn => {
                Box::new(Gcn::new(in_dim, hidden_dim, out_dim, num_layers, rng))
            }
            GnnArchitecture::Sage => {
                Box::new(GraphSage::new(in_dim, hidden_dim, out_dim, num_layers, rng))
            }
            GnnArchitecture::Sgc => Box::new(Sgc::new(in_dim, out_dim, num_layers.max(1), rng)),
            GnnArchitecture::Mlp => {
                Box::new(Mlp::new(in_dim, hidden_dim, out_dim, num_layers, rng))
            }
            GnnArchitecture::Appnp => Box::new(Appnp::new(
                in_dim,
                hidden_dim,
                out_dim,
                num_layers.max(2),
                0.1,
                rng,
            )),
            GnnArchitecture::Cheby => {
                Box::new(ChebyNet::new(in_dim, hidden_dim, out_dim, num_layers, rng))
            }
        }
    }
}

impl fmt::Display for GnnArchitecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for GnnArchitecture {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        GnnArchitecture::parse_name(s).ok_or_else(|| format!("unknown GNN architecture '{}'", s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_tensor::init::rng_from_seed;

    #[test]
    fn registry_builds_every_architecture() {
        let mut rng = rng_from_seed(0);
        for arch in GnnArchitecture::all() {
            let model = arch.build(8, 16, 3, 2, &mut rng);
            assert_eq!(model.output_dim(), 3);
            assert!(
                model.num_parameters() > 0,
                "{} has no parameters",
                arch.name()
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::BTreeSet<_> =
            GnnArchitecture::all().iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 6);
    }
}
