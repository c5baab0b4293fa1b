//! The adaptive trigger generator `f_g` (Eq. 10–11).
//!
//! The generator encodes a node into a hidden representation and decodes it
//! into the features (and, optionally, the structure) of a `|g|`-node trigger:
//!
//! * **MLP encoder** (default): two feature-only layers.
//! * **GCN encoder**: two message-passing layers over the original graph
//!   (Eq. 10 of the paper).
//! * **Transformer decoder** (Table V): the hidden representation is expanded
//!   into `|g|` slot embeddings which attend to each other through a
//!   single-head self-attention layer before being projected to features.
//!
//! The structure head `W_a` produces a binarized trigger adjacency through a
//! straight-through estimator (Eq. 11); the attack pipeline defaults to fully
//! connected triggers, the invariance assumption of the paper's convergence
//! analysis, and the head is kept for completeness.

use rand::rngs::StdRng;

use bgc_nn::AdjacencyRef;
use bgc_tensor::init::xavier_uniform;
use bgc_tensor::{Matrix, Tape, Var};

use crate::config::GeneratorKind;

/// Differentiable output of the generator for a batch of nodes.
pub struct TriggerBatch {
    /// Trigger node features, shape `(len(nodes) * trigger_size) x d`; the
    /// rows of node `i` occupy the block `i*trigger_size .. (i+1)*trigger_size`.
    pub features: Var,
    /// Tape handles of the generator parameters, aligned with
    /// [`TriggerGenerator::parameters`].
    pub param_vars: Vec<Var>,
}

/// The single-head self-attention block of the Transformer decoder.  Kept as
/// one struct so a Transformer generator carries all four projections or none
/// — the code can match on the whole head instead of unwrapping each matrix.
#[derive(Clone, Debug)]
struct AttentionHead {
    w_query: Matrix,
    w_key: Matrix,
    w_value: Matrix,
    w_out: Matrix,
}

/// The adaptive trigger generator.
#[derive(Clone, Debug)]
pub struct TriggerGenerator {
    kind: GeneratorKind,
    trigger_size: usize,
    feat_dim: usize,
    hidden: usize,
    // Encoder (shared by all variants; the GCN variant interleaves message
    // passing between the two layers).
    enc_w1: Matrix,
    enc_b1: Matrix,
    enc_w2: Matrix,
    enc_b2: Matrix,
    // Feature head: `hidden -> trigger_size * d` for MLP/GCN, or
    // `hidden -> trigger_size * hidden` slot embeddings for the Transformer.
    w_feat: Matrix,
    // Transformer-only attention + output projection (`Some` iff the kind is
    // `Transformer`).
    attention: Option<AttentionHead>,
    // Structure head `hidden -> trigger_size^2` (Eq. 11).
    w_adj: Matrix,
    // L2 norm every generated trigger row is rescaled to (keeps triggers on
    // the data's feature scale so they survive condensation and transfer to
    // the victim model).
    feature_scale: f32,
}

/// Plain-data image of a [`TriggerGenerator`], used by the artifact store to
/// persist and restore attack outputs across processes.  The matrices are
/// ordered `enc_w1, enc_b1, enc_w2, enc_b2, w_feat, w_adj` followed by the
/// four attention projections `w_query, w_key, w_value, w_out` when the kind
/// is `Transformer`.
#[derive(Clone, Debug)]
pub struct GeneratorSnapshot {
    /// Encoder variant.
    pub kind: GeneratorKind,
    /// Trigger nodes per poisoned node.
    pub trigger_size: usize,
    /// Feature dimensionality.
    pub feat_dim: usize,
    /// Hidden width (already clamped to the generator's minimum).
    pub hidden: usize,
    /// L2 norm of generated trigger rows.
    pub feature_scale: f32,
    /// Weight matrices in the documented order.
    pub matrices: Vec<Matrix>,
}

impl TriggerGenerator {
    /// Creates a generator for `feat_dim`-dimensional node features with the
    /// default trigger feature scale.
    pub fn new(
        kind: GeneratorKind,
        feat_dim: usize,
        hidden: usize,
        trigger_size: usize,
        rng: &mut StdRng,
    ) -> Self {
        Self::with_feature_scale(kind, feat_dim, hidden, trigger_size, 3.0, rng)
    }

    /// Creates a generator whose trigger rows are rescaled to the given L2
    /// norm.
    pub fn with_feature_scale(
        kind: GeneratorKind,
        feat_dim: usize,
        hidden: usize,
        trigger_size: usize,
        feature_scale: f32,
        rng: &mut StdRng,
    ) -> Self {
        assert!(feature_scale > 0.0, "feature scale must be positive");
        assert!(trigger_size >= 1, "trigger size must be at least 1");
        let hidden = hidden.max(4);
        let feat_head_out = match kind {
            GeneratorKind::Transformer => trigger_size * hidden,
            _ => trigger_size * feat_dim,
        };
        let attention = if kind == GeneratorKind::Transformer {
            Some(AttentionHead {
                w_query: xavier_uniform(hidden, hidden, rng),
                w_key: xavier_uniform(hidden, hidden, rng),
                w_value: xavier_uniform(hidden, hidden, rng),
                w_out: xavier_uniform(hidden, feat_dim, rng),
            })
        } else {
            None
        };
        Self {
            kind,
            trigger_size,
            feat_dim,
            hidden,
            enc_w1: xavier_uniform(feat_dim, hidden, rng),
            enc_b1: Matrix::zeros(1, hidden),
            enc_w2: xavier_uniform(hidden, hidden, rng),
            enc_b2: Matrix::zeros(1, hidden),
            w_feat: xavier_uniform(hidden, feat_head_out, rng),
            attention,
            w_adj: xavier_uniform(hidden, trigger_size * trigger_size, rng),
            feature_scale,
        }
    }

    /// Captures every weight and hyper-parameter as plain data for artifact
    /// persistence.
    pub fn snapshot(&self) -> GeneratorSnapshot {
        let mut matrices = vec![
            self.enc_w1.clone(),
            self.enc_b1.clone(),
            self.enc_w2.clone(),
            self.enc_b2.clone(),
            self.w_feat.clone(),
            self.w_adj.clone(),
        ];
        if let Some(head) = &self.attention {
            matrices.extend([
                head.w_query.clone(),
                head.w_key.clone(),
                head.w_value.clone(),
                head.w_out.clone(),
            ]);
        }
        GeneratorSnapshot {
            kind: self.kind,
            trigger_size: self.trigger_size,
            feat_dim: self.feat_dim,
            hidden: self.hidden,
            feature_scale: self.feature_scale,
            matrices,
        }
    }

    /// Rebuilds a generator from a snapshot.  Returns `None` when the
    /// snapshot is structurally invalid (wrong matrix count for its kind, or
    /// non-positive dimensions), which a store read path treats as
    /// corruption.
    pub fn from_snapshot(snap: GeneratorSnapshot) -> Option<Self> {
        if snap.trigger_size == 0 || snap.feature_scale <= 0.0 {
            return None;
        }
        let expected = match snap.kind {
            GeneratorKind::Transformer => 10,
            _ => 6,
        };
        if snap.matrices.len() != expected {
            return None;
        }
        let mut it = snap.matrices.into_iter();
        // Length checked above, so each `next()` yields; `?` keeps this
        // panic-free regardless.
        let enc_w1 = it.next()?;
        let enc_b1 = it.next()?;
        let enc_w2 = it.next()?;
        let enc_b2 = it.next()?;
        let w_feat = it.next()?;
        let w_adj = it.next()?;
        let attention = if snap.kind == GeneratorKind::Transformer {
            Some(AttentionHead {
                w_query: it.next()?,
                w_key: it.next()?,
                w_value: it.next()?,
                w_out: it.next()?,
            })
        } else {
            None
        };
        Some(Self {
            kind: snap.kind,
            trigger_size: snap.trigger_size,
            feat_dim: snap.feat_dim,
            hidden: snap.hidden,
            enc_w1,
            enc_b1,
            enc_w2,
            enc_b2,
            w_feat,
            attention,
            w_adj,
            feature_scale: snap.feature_scale,
        })
    }

    /// Encoder variant in use.
    pub fn kind(&self) -> GeneratorKind {
        self.kind
    }

    /// Number of trigger nodes per poisoned node.
    pub fn trigger_size(&self) -> usize {
        self.trigger_size
    }

    /// Feature dimensionality of the generated trigger nodes.
    pub fn feature_dim(&self) -> usize {
        self.feat_dim
    }

    /// Immutable parameter views (order matches `TriggerBatch::param_vars`).
    pub fn parameters(&self) -> Vec<&Matrix> {
        let mut out = vec![
            &self.enc_w1,
            &self.enc_b1,
            &self.enc_w2,
            &self.enc_b2,
            &self.w_feat,
        ];
        if let Some(head) = &self.attention {
            out.extend([&head.w_query, &head.w_key, &head.w_value, &head.w_out]);
        }
        out
    }

    /// Mutable parameter views (same order as [`TriggerGenerator::parameters`]).
    pub fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out = vec![
            &mut self.enc_w1,
            &mut self.enc_b1,
            &mut self.enc_w2,
            &mut self.enc_b2,
            &mut self.w_feat,
        ];
        if let Some(head) = self.attention.as_mut() {
            out.extend([
                &mut head.w_query,
                &mut head.w_key,
                &mut head.w_value,
                &mut head.w_out,
            ]);
        }
        out
    }

    /// Encodes the listed nodes into hidden representations (`n x hidden`),
    /// returning the parameter vars registered so far.
    fn encode(
        &self,
        tape: &mut Tape,
        adj: &AdjacencyRef,
        features: &Matrix,
        nodes: &[usize],
    ) -> (Var, Vec<Var>) {
        let w1 = tape.leaf_copied(&self.enc_w1);
        let b1 = tape.leaf_copied(&self.enc_b1);
        let w2 = tape.leaf_copied(&self.enc_w2);
        let b2 = tape.leaf_copied(&self.enc_b2);
        let params = vec![w1, b1, w2, b2];
        let h = match self.kind {
            GeneratorKind::Gcn => {
                // Full-graph message passing, then select the requested rows.
                let x = tape.leaf_detached(features);
                let p1 = adj.propagate(tape, x);
                let l1 = tape.matmul(p1, w1);
                let l1 = tape.add_bias(l1, b1);
                let h1 = tape.relu(l1);
                let p2 = adj.propagate(tape, h1);
                let l2 = tape.matmul(p2, w2);
                let h2 = tape.add_bias(l2, b2);
                tape.row_select(h2, nodes)
            }
            GeneratorKind::Mlp | GeneratorKind::Transformer => {
                // Feature-only encoding: restrict to the requested rows first
                // (cheaper on large graphs).
                let x = tape.constant(features.select_rows(nodes));
                let l1 = tape.matmul(x, w1);
                let l1 = tape.add_bias(l1, b1);
                let h1 = tape.relu(l1);
                let l2 = tape.matmul(h1, w2);
                tape.add_bias(l2, b2)
            }
        };
        (h, params)
    }

    /// Generates trigger features for a batch of nodes, differentiably.
    pub fn generate(
        &self,
        tape: &mut Tape,
        adj: &AdjacencyRef,
        features: &Matrix,
        nodes: &[usize],
    ) -> TriggerBatch {
        assert!(!nodes.is_empty(), "generate called with no nodes");
        let (hidden, mut param_vars) = self.encode(tape, adj, features, nodes);
        let w_feat = tape.leaf_copied(&self.w_feat);
        param_vars.push(w_feat);
        let decoded = tape.matmul(hidden, w_feat);
        let features_var = match &self.attention {
            None => tape.reshape(decoded, nodes.len() * self.trigger_size, self.feat_dim),
            Some(head) => {
                let wq = tape.leaf_copied(&head.w_query);
                let wk = tape.leaf_copied(&head.w_key);
                let wv = tape.leaf_copied(&head.w_value);
                let wo = tape.leaf_copied(&head.w_out);
                param_vars.extend([wq, wk, wv, wo]);
                let slots_all = tape.reshape(decoded, nodes.len() * self.trigger_size, self.hidden);
                let scale = 1.0 / (self.hidden as f32).sqrt();
                let mut per_node = Vec::with_capacity(nodes.len());
                for i in 0..nodes.len() {
                    let idx: Vec<usize> =
                        (i * self.trigger_size..(i + 1) * self.trigger_size).collect();
                    let slots = tape.row_select(slots_all, &idx);
                    let q = tape.matmul(slots, wq);
                    let k = tape.matmul(slots, wk);
                    let v = tape.matmul(slots, wv);
                    let k_t = tape.transpose(k);
                    let scores = tape.matmul(q, k_t);
                    let scores = tape.scale(scores, scale);
                    let attn = tape.softmax_rows(scores);
                    let mixed = tape.matmul(attn, v);
                    let projected = tape.matmul(mixed, wo);
                    per_node.push(projected);
                }
                let mut acc = per_node[0];
                for &p in per_node.iter().skip(1) {
                    acc = tape.concat_rows(acc, p);
                }
                acc
            }
        };
        let normalized = tape.l2_normalize_rows(features_var);
        let scaled = tape.scale(normalized, self.feature_scale);
        TriggerBatch {
            features: scaled,
            param_vars,
        }
    }

    /// Generates the binarized trigger adjacency for a single node through the
    /// structure head `W_a` with a straight-through estimator (Eq. 11).
    pub fn generate_structure_plain(
        &self,
        adj: &AdjacencyRef,
        features: &Matrix,
        node: usize,
    ) -> Matrix {
        let mut tape = Tape::new();
        let (hidden, _) = self.encode(&mut tape, adj, features, &[node]);
        let w_adj = tape.leaf_copied(&self.w_adj);
        let logits = tape.matmul(hidden, w_adj);
        let probs = tape.sigmoid(logits);
        let binary = tape.binarize_ste(probs);
        let shaped = tape.reshape(binary, self.trigger_size, self.trigger_size);
        let mut out = tape.value_ref(shaped).clone();
        // Symmetrize and clear the diagonal so the result is a valid
        // undirected trigger topology.
        for r in 0..self.trigger_size {
            out.set(r, r, 0.0);
            for c in (r + 1)..self.trigger_size {
                let v = if out.get(r, c) > 0.0 || out.get(c, r) > 0.0 {
                    1.0
                } else {
                    0.0
                };
                out.set(r, c, v);
                out.set(c, r, v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trigger::TriggerProvider;
    use bgc_tensor::init::{randn, rng_from_seed};
    use bgc_tensor::CsrMatrix;

    fn toy_inputs() -> (AdjacencyRef, Matrix) {
        let adj = AdjacencyRef::sparse(
            CsrMatrix::from_edges(6, &[(0, 1), (1, 2), (2, 3), (4, 5)])
                .symmetrize()
                .gcn_normalize(),
        );
        let mut rng = rng_from_seed(3);
        (adj, randn(6, 10, 0.0, 1.0, &mut rng))
    }

    #[test]
    fn all_variants_generate_correct_shapes() {
        let (adj, features) = toy_inputs();
        for kind in GeneratorKind::all() {
            let mut rng = rng_from_seed(1);
            let gen = TriggerGenerator::new(kind, 10, 16, 4, &mut rng);
            let out = gen.triggers(&mut Tape::new(), &adj, &features, &[0, 3, 5]);
            assert_eq!(out.shape(), (12, 10), "{} wrong output shape", kind.name());
            assert!(!out.has_non_finite());
        }
    }

    #[test]
    fn different_nodes_get_different_triggers() {
        let (adj, features) = toy_inputs();
        let mut rng = rng_from_seed(2);
        let gen = TriggerGenerator::new(GeneratorKind::Mlp, 10, 16, 2, &mut rng);
        let out = gen.triggers(&mut Tape::new(), &adj, &features, &[0, 4]);
        let first = out.select_rows(&[0, 1]);
        let second = out.select_rows(&[2, 3]);
        assert!(
            !first.approx_eq(&second, 1e-6),
            "sample-specific triggers must differ between nodes"
        );
    }

    #[test]
    fn generator_parameters_receive_gradients() {
        let (adj, features) = toy_inputs();
        for kind in GeneratorKind::all() {
            let mut rng = rng_from_seed(4);
            let gen = TriggerGenerator::new(kind, 10, 8, 3, &mut rng);
            let mut tape = Tape::new();
            let batch = gen.generate(&mut tape, &adj, &features, &[1, 2]);
            let loss = tape.mean_all(batch.features);
            let grads = tape.backward(loss);
            assert_eq!(batch.param_vars.len(), gen.parameters().len());
            let with_grad = batch
                .param_vars
                .iter()
                .filter(|&&v| grads.get(v).is_some())
                .count();
            assert!(
                with_grad >= gen.parameters().len() - 2,
                "{}: only {} of {} parameters received gradients",
                kind.name(),
                with_grad,
                gen.parameters().len()
            );
        }
    }

    #[test]
    fn structure_head_produces_symmetric_binary_adjacency() {
        let (adj, features) = toy_inputs();
        let mut rng = rng_from_seed(5);
        let gen = TriggerGenerator::new(GeneratorKind::Mlp, 10, 8, 4, &mut rng);
        let a = gen.generate_structure_plain(&adj, &features, 2);
        assert_eq!(a.shape(), (4, 4));
        for r in 0..4 {
            assert_eq!(a.get(r, r), 0.0);
            for c in 0..4 {
                assert!(a.get(r, c) == 0.0 || a.get(r, c) == 1.0);
                assert_eq!(a.get(r, c), a.get(c, r));
            }
        }
    }

    #[test]
    fn gcn_encoder_uses_the_structure() {
        let (_, features) = toy_inputs();
        let mut rng = rng_from_seed(6);
        let gen = TriggerGenerator::new(GeneratorKind::Gcn, 10, 8, 2, &mut rng);
        let adj_a = AdjacencyRef::sparse(
            CsrMatrix::from_edges(6, &[(0, 1), (1, 2)])
                .symmetrize()
                .gcn_normalize(),
        );
        let adj_b = AdjacencyRef::sparse(CsrMatrix::zeros(6, 6).gcn_normalize());
        let a = gen.triggers(&mut Tape::new(), &adj_a, &features, &[0]);
        let b = gen.triggers(&mut Tape::new(), &adj_b, &features, &[0]);
        assert!(
            !a.approx_eq(&b, 1e-6),
            "GCN encoder must depend on the adjacency"
        );
    }

    #[test]
    fn snapshot_round_trips_every_variant() {
        let (adj, features) = toy_inputs();
        for kind in GeneratorKind::all() {
            let mut rng = rng_from_seed(8);
            let gen = TriggerGenerator::new(kind, 10, 16, 3, &mut rng);
            let reference = gen.triggers(&mut Tape::new(), &adj, &features, &[0, 2, 5]);
            let snap = gen.snapshot();
            let restored = TriggerGenerator::from_snapshot(snap)
                .unwrap_or_else(|| unreachable!("own snapshot is always valid"));
            let replayed = restored.triggers(&mut Tape::new(), &adj, &features, &[0, 2, 5]);
            assert!(
                reference.approx_eq(&replayed, 0.0),
                "{}: restored generator must be bit-identical",
                kind.name()
            );
            assert_eq!(restored.kind(), kind);
            assert_eq!(restored.parameters().len(), gen.parameters().len());
        }
    }

    #[test]
    fn invalid_snapshots_are_rejected() {
        let mut rng = rng_from_seed(9);
        let gen = TriggerGenerator::new(GeneratorKind::Transformer, 10, 16, 3, &mut rng);
        let mut snap = gen.snapshot();
        snap.matrices.pop();
        assert!(
            TriggerGenerator::from_snapshot(snap).is_none(),
            "missing attention projection is structural corruption"
        );
        let mut snap = gen.snapshot();
        snap.kind = GeneratorKind::Mlp;
        assert!(
            TriggerGenerator::from_snapshot(snap).is_none(),
            "an MLP snapshot must not carry attention matrices"
        );
        let mut snap = gen.snapshot();
        snap.trigger_size = 0;
        assert!(TriggerGenerator::from_snapshot(snap).is_none());
    }

    #[test]
    #[should_panic(expected = "no nodes")]
    fn empty_node_list_panics() {
        let (adj, features) = toy_inputs();
        let mut rng = rng_from_seed(7);
        let gen = TriggerGenerator::new(GeneratorKind::Mlp, 10, 8, 2, &mut rng);
        let mut tape = Tape::new();
        let _ = gen.generate(&mut tape, &adj, &features, &[]);
    }
}
