//! Gradient-matching graph condensation (Eq. 6 of the paper), implemented as
//! a re-entrant state machine.
//!
//! The same state machine drives three things:
//!
//! * the stand-alone condensation methods DC-Graph, GCond and GCond-X
//!   ([`crate::methods`]),
//! * the *backdoored* condensation of BGC, which interleaves trigger-generator
//!   updates between condensation steps (Algorithm 1 of the paper) — the
//!   attack crate hands the state the poisoned graph `G_P` and its propagated
//!   features with [`GradientMatchingState::set_real`] once, then after each
//!   trigger update re-copies only the rewritten rows with
//!   [`GradientMatchingState::update_real_rows`] and calls
//!   [`GradientMatchingState::matching_step`],
//! * the surrogate SGC model `f_c` (Eq. 12/16), whose weight matrix lives in
//!   the state and is refreshed/trained here.
//!
//! Every softmax-regression weight gradient here — a surrogate training
//! step's, and each class's real-graph gradient `Z_cᵀ (softmax(Z_c W) −
//! Y_c) / n_c` of a matching step — is one call of the fused kernel
//! `Matrix::softmax_regression_grad_into` into buffers the state keeps, so a
//! steady-state step allocates no gradient. A matching step computes its
//! classes' real gradients as one pool batch, one task per class, once
//! their summed multiply-adds reach `CLASS_BATCH_WORK` (2^22), and serially
//! below it. The bits are the same either way: each class is one kernel
//! call with its own scratch.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use bgc_graph::{CondensedGraph, Graph};
use bgc_nn::{Adam, Optimizer};
use bgc_tensor::init::{rng_from_seed, xavier_uniform};
use bgc_tensor::kernel::{RowLabels, SoftmaxGradScratch};
use bgc_tensor::{Matrix, Tape};
use rayon::prelude::*;

use crate::config::CondensationConfig;
use crate::labels::allocate_synthetic_labels;
use crate::structure::StructureGenerator;

/// Which flavour of gradient matching to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MatchingVariant {
    /// DC adapted to graphs: raw features, structure-free condensed graph.
    DcGraph,
    /// GCond: propagated features, learned synthetic structure.
    GCond,
    /// GCond-X: propagated features, structure-free condensed graph.
    GCondX,
}

impl MatchingVariant {
    /// Whether the original features are propagated through `Â^K` before
    /// gradients are computed.
    pub fn propagates_real_features(&self) -> bool {
        !matches!(self, MatchingVariant::DcGraph)
    }

    /// Whether a synthetic structure generator is learned.
    pub fn learns_structure(&self) -> bool {
        matches!(self, MatchingVariant::GCond)
    }

    /// Display name used in result tables.
    pub fn name(&self) -> &'static str {
        match self {
            MatchingVariant::DcGraph => "DC-Graph",
            MatchingVariant::GCond => "GCond",
            MatchingVariant::GCondX => "GCond-X",
        }
    }
}

/// Summed multiply-adds (`rows x features x classes` over the matched
/// classes) from which a step computes its classes' real gradients as one
/// pool batch instead of a serial loop. Large-tier Flickr's 40 M run as a
/// batch and every quick-scale step stays below it. Each side is measured
/// on a 2-core machine over 10 paired runs: running large Flickr's classes
/// serially cost its cell 9% median wall time (slower in every pair), and
/// batching the quick steps too cost `bgc all --scale quick` 3 MB of peak
/// RSS (in every pair) and 5% median wall time.
const CLASS_BATCH_WORK: usize = 1 << 22;

/// One class's surrogate gradient on the real graph and the kernel scratch
/// it is computed in, both reused by every step.
struct RealClassGradient {
    /// `Z_cᵀ (softmax(Z_c W) − Y_c) / n_c` (`d x C`). The tape holds it as a
    /// constant leaf until its next reset; the step rewrites it in place.
    grad: Arc<Matrix>,
    scratch: SoftmaxGradScratch,
}

/// Re-entrant gradient-matching condensation state.
pub struct GradientMatchingState {
    /// Matching flavour.
    pub variant: MatchingVariant,
    /// Hyper-parameters.
    pub config: CondensationConfig,
    /// Synthetic features `X'` (optimized).
    pub syn_features: Matrix,
    /// Synthetic labels `Y'` (fixed).
    pub syn_labels: Vec<usize>,
    /// Surrogate SGC weight `W` (`d x C`).
    pub surrogate_weight: Matrix,
    structure: Option<StructureGenerator>,
    feature_opt: Adam,
    structure_opt: Adam,
    num_classes: usize,
    rng: StdRng,
    epochs_done: usize,
    /// Pooled tape reused across every matching step (reset, not rebuilt).
    tape: Tape,
    /// Synthetic node indices per class (labels are fixed at construction).
    syn_class_indices: Vec<Vec<usize>>,
    /// Per class, the real representation's rows at that class's training
    /// nodes in split order (`Z_c`), gathered by
    /// [`GradientMatchingState::set_real`]; empty until then.
    real_blocks: Vec<Matrix>,
    /// Per real node, `(class, row of its class block)` for a training node.
    real_slots: Vec<Option<(usize, usize)>>,
    /// Per-class one-hot targets, recorded as shared constant leaves.
    class_onehots: Vec<Option<Arc<Matrix>>>,
    /// `I_{N'}` for the structure variant's self-loops (shared constant).
    identity: Option<Arc<Matrix>>,
    /// Per class, its real gradient of the current step.
    real_grads: Vec<RealClassGradient>,
    /// The surrogate training step's gradient (`d x C`) and kernel scratch.
    surrogate_grad: Matrix,
    surrogate_scratch: SoftmaxGradScratch,
    /// Zero gradient fallbacks (preallocated; see [`bgc_tensor::Gradients::get_or`]).
    x_zero_grad: Matrix,
    structure_zero_grads: Vec<Matrix>,
}

impl GradientMatchingState {
    /// Initializes the state from a (clean) graph: allocates synthetic labels
    /// proportionally and initializes `X'` by sampling real training nodes of
    /// the matching class, exactly as GCond does.
    pub fn new(graph: &Graph, variant: MatchingVariant, config: CondensationConfig) -> Self {
        let mut rng = rng_from_seed(config.seed);
        let n_syn = config.synthetic_nodes(graph.split.train.len(), graph.num_classes);
        let syn_labels = allocate_synthetic_labels(graph, n_syn);
        let d = graph.num_features();
        let mut syn_features = Matrix::zeros(syn_labels.len(), d);
        for (i, &c) in syn_labels.iter().enumerate() {
            let candidates = graph.train_nodes_of_class(c);
            let source = candidates[rng.gen_range(0..candidates.len())];
            syn_features
                .row_mut(i)
                .copy_from_slice(graph.features.row(source));
        }
        let structure = if variant.learns_structure() {
            Some(StructureGenerator::new(d, config.structure_rank, &mut rng))
        } else {
            None
        };
        let surrogate_weight = xavier_uniform(d, graph.num_classes, &mut rng);
        let feature_opt = Adam::new(config.feature_lr, 0.0);
        let structure_opt = Adam::new(config.structure_lr, 0.0);
        let num_classes = graph.num_classes;
        let n_syn = syn_labels.len();
        let syn_class_indices: Vec<Vec<usize>> = (0..num_classes)
            .map(|class| {
                syn_labels
                    .iter()
                    .enumerate()
                    .filter(|&(_, &l)| l == class)
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();
        let class_onehots: Vec<Option<Arc<Matrix>>> = syn_class_indices
            .iter()
            .enumerate()
            .map(|(class, idx)| {
                if idx.is_empty() {
                    None
                } else {
                    Some(Arc::new(Matrix::one_hot(
                        &vec![class; idx.len()],
                        num_classes,
                    )))
                }
            })
            .collect();
        let identity = structure
            .is_some()
            .then(|| Arc::new(Matrix::identity(n_syn)));
        let structure_zero_grads = match &structure {
            Some(gen) => gen
                .parameters()
                .iter()
                .map(|p| Matrix::zeros(p.rows(), p.cols()))
                .collect(),
            None => Vec::new(),
        };
        let real_grads = (0..num_classes)
            .map(|_| RealClassGradient {
                grad: Arc::new(Matrix::zeros(d, num_classes)),
                scratch: SoftmaxGradScratch::default(),
            })
            .collect();
        Self {
            variant,
            config,
            x_zero_grad: Matrix::zeros(n_syn, d),
            real_grads,
            surrogate_grad: Matrix::zeros(d, num_classes),
            surrogate_scratch: SoftmaxGradScratch::default(),
            syn_features,
            syn_labels,
            surrogate_weight,
            structure,
            feature_opt,
            structure_opt,
            num_classes,
            rng,
            epochs_done: 0,
            tape: Tape::new(),
            syn_class_indices,
            real_blocks: Vec::new(),
            real_slots: Vec::new(),
            class_onehots,
            identity,
            structure_zero_grads,
        }
    }

    /// Number of synthetic nodes `N'`.
    pub fn num_synthetic(&self) -> usize {
        self.syn_labels.len()
    }

    /// Number of condensation steps performed so far.
    pub fn epochs_done(&self) -> usize {
        self.epochs_done
    }

    /// Propagation depth of the real-graph representation: `K` for GCond /
    /// GCond-X, 0 (raw features) for DC-Graph.
    pub fn real_propagation_steps(&self) -> usize {
        if self.variant.propagates_real_features() {
            self.config.propagation_steps
        } else {
            0
        }
    }

    /// Real-graph representation the gradients are computed on:
    /// `Â^k X` with `k` = [`GradientMatchingState::real_propagation_steps`].
    pub fn real_representation(&self, graph: &Graph) -> Matrix {
        graph.propagated_features(self.real_propagation_steps())
    }

    /// Draws a fresh random surrogate initialization (gradient matching is
    /// performed across many initializations).
    pub fn resample_surrogate(&mut self) {
        self.surrogate_weight = xavier_uniform(
            self.surrogate_weight.rows(),
            self.surrogate_weight.cols(),
            &mut self.rng,
        );
    }

    /// Row-normalized synthetic propagation operator `(A' + I)` (dense), using
    /// the current materialized structure; identity-based for structure-free
    /// variants.
    pub fn synthetic_propagation_matrix(&self) -> Matrix {
        let n = self.num_synthetic();
        let adj = match &self.structure {
            Some(gen) => gen.materialize(&self.syn_features, 0.0),
            None => Matrix::zeros(n, n),
        };
        let mut a = adj;
        for i in 0..n {
            a.add_at(i, i, 1.0);
        }
        // Row-normalize.
        for r in 0..n {
            let sum: f32 = a.row(r).iter().sum::<f32>() + 1e-8;
            for v in a.row_mut(r) {
                *v /= sum;
            }
        }
        a
    }

    /// Propagated synthetic representation `Z' = (D^{-1}(A'+I))^K X'` as a
    /// plain matrix (used for surrogate training).
    ///
    /// A structure-free variant's operator is exactly `I`: each row of
    /// `0 + I` sums to `1 + 1e-8`, which rounds to `1.0` in f32.  On a
    /// finite `X'` the product `I · X'` changes only `-0.0`, which its
    /// `+0.0` accumulator absorbs, so `X'` with `-0.0` flushed to `+0.0`
    /// stands in for the `K` products.  A non-finite `X'` keeps them
    /// (`0 · ∞` spreads NaN through a column).
    pub fn synthetic_representation(&self) -> Matrix {
        let steps = self.config.propagation_steps;
        if self.structure.is_none() && steps > 0 && !self.syn_features.has_non_finite() {
            return self.syn_features.map(|v| v + 0.0);
        }
        let prop = self.synthetic_propagation_matrix();
        let mut z = self.syn_features.clone();
        for _ in 0..steps {
            z = prop.matmul(&z);
        }
        z
    }

    /// Trains the surrogate SGC weight on the current condensed graph for
    /// `steps` gradient steps (the `T` inner iterations of Eq. 16).
    ///
    /// Each step's gradient `Z'ᵀ (softmax(Z' W) − Y') / N'` is one call of
    /// the fused softmax-regression kernel into preallocated buffers.
    pub fn train_surrogate(&mut self, steps: usize) {
        let z = self.synthetic_representation();
        let labels = RowLabels::PerRow(&self.syn_labels);
        for _ in 0..steps {
            z.softmax_regression_grad_into(
                &self.surrogate_weight,
                labels,
                &mut self.surrogate_scratch,
                &mut self.surrogate_grad,
            );
            self.surrogate_weight
                .add_scaled_assign(&self.surrogate_grad, -self.config.surrogate_lr);
        }
    }

    /// Surrogate training loss on the current condensed graph (diagnostic).
    pub fn surrogate_loss(&self) -> f32 {
        let z = self.synthetic_representation();
        let logits = z.matmul(&self.surrogate_weight);
        let probs = logits.softmax_rows();
        let mut loss = 0.0;
        for (i, &c) in self.syn_labels.iter().enumerate() {
            loss -= (probs.get(i, c) + 1e-12).ln();
        }
        loss / self.syn_labels.len().max(1) as f32
    }

    /// Makes `graph` (the clean graph or BGC's poisoned graph) the real graph
    /// of the following [`GradientMatchingState::matching_step`]s: gathers,
    /// in one pass over its training split, each class's rows of its real
    /// representation `z_real` (see
    /// [`GradientMatchingState::real_representation`]) into one block per
    /// class, in split order.
    pub fn set_real(&mut self, graph: &Graph, z_real: &Matrix) {
        assert_eq!(
            z_real.cols(),
            self.syn_features.cols(),
            "real representation feature dimension mismatch"
        );
        let mut class_nodes = vec![Vec::new(); self.num_classes];
        self.real_slots = vec![None; z_real.rows()];
        for &node in &graph.split.train {
            let class = graph.labels[node];
            self.real_slots[node] = Some((class, class_nodes[class].len()));
            class_nodes[class].push(node);
        }
        self.real_blocks = class_nodes
            .iter()
            .map(|nodes| z_real.select_rows(nodes))
            .collect();
    }

    /// Re-copies `rows` of `z_real` into the class blocks. `z_real` is the
    /// representation given to the last [`GradientMatchingState::set_real`]
    /// with only `rows` rewritten since, as `G_P`'s is after a trigger
    /// update. Rows of nodes outside the training split are skipped.
    pub fn update_real_rows(&mut self, z_real: &Matrix, rows: &[usize]) {
        for &node in rows {
            if let Some((class, row)) = self.real_slots[node] {
                self.real_blocks[class]
                    .row_mut(row)
                    .copy_from_slice(z_real.row(node));
            }
        }
    }

    /// Whether `class` takes part in the matching loss: it has synthetic
    /// nodes and the real graph has training nodes of it.
    fn is_matched(&self, class: usize) -> bool {
        !self.syn_class_indices[class].is_empty() && self.real_blocks[class].rows() > 0
    }

    /// Multiply-adds of one product over the matched classes' real blocks.
    fn real_gradient_work(&self) -> usize {
        (0..self.num_classes)
            .filter(|&class| self.is_matched(class))
            .map(|class| self.real_blocks[class].len() * self.num_classes)
            .sum()
    }

    /// Per-class surrogate gradients on the real (possibly poisoned) graph,
    /// `∇_W L_c = Z_cᵀ (softmax(Z_c W) − Y_c) / n_c`, constants during the
    /// synthetic-graph update: one fused-kernel call per matched class into
    /// its [`RealClassGradient`], as one pool batch with one task per class
    /// when `parallel`, else serially. Each class is computed the same way
    /// on either path, so the bits do not depend on the schedule.
    fn compute_real_gradients(&mut self, parallel: bool) {
        let matched: Vec<bool> = (0..self.num_classes)
            .map(|class| self.is_matched(class))
            .collect();
        let w = &self.surrogate_weight;
        let tasks: Vec<(usize, &Matrix, &mut RealClassGradient)> = self
            .real_blocks
            .iter()
            .zip(self.real_grads.iter_mut())
            .enumerate()
            .filter(|&(class, _)| matched[class])
            .map(|(class, (zc, slot))| (class, zc, slot))
            .collect();
        let run = |(class, zc, slot): (usize, &Matrix, &mut RealClassGradient)| {
            let labels = RowLabels::Uniform(class);
            let grad = Arc::make_mut(&mut slot.grad);
            zc.softmax_regression_grad_into(w, labels, &mut slot.scratch, grad);
        };
        if parallel {
            tasks.into_par_iter().for_each(run);
        } else {
            tasks.into_iter().for_each(run);
        }
    }

    /// [`GradientMatchingState::matching_step`] against `graph`, gathering
    /// its representation first.
    pub fn step(&mut self, graph: &Graph) -> f32 {
        self.set_real(graph, &self.real_representation(graph));
        self.matching_step()
    }

    /// One outer condensation step (Eq. 18): matches per-class surrogate
    /// gradients of the synthetic graph against those of the real graph of
    /// the last [`GradientMatchingState::set_real`] and updates `X'` and the
    /// structure generator.  Returns the matching loss.
    pub fn matching_step(&mut self) -> f32 {
        assert_eq!(
            self.real_blocks.len(),
            self.num_classes,
            "set_real must run before a matching step"
        );
        // The reset releases the tape's hold on last step's real gradients,
        // so they are rewritten in place below.
        self.tape.reset();
        self.compute_real_gradients(self.real_gradient_work() >= CLASS_BATCH_WORK);

        let x_var = self.tape.leaf_copied(&self.syn_features);
        // Synthetic representation Z' (differentiable w.r.t. X' and structure).
        let (z_syn, structure_params) = match &self.structure {
            Some(gen) => {
                let (adj, params) = gen.forward(&mut self.tape, x_var);
                #[expect(
                    clippy::expect_used,
                    reason = "`new` sets `identity` exactly when it sets `structure`"
                )]
                let identity = self
                    .identity
                    .clone()
                    .expect("structure variants precompute the identity");
                let identity = self.tape.const_leaf(identity);
                let adj_loops = self.tape.add(adj, identity);
                let prop = self.tape.row_normalize(adj_loops);
                let mut z = x_var;
                for _ in 0..self.config.propagation_steps {
                    z = self.tape.matmul(prop, z);
                }
                (z, params)
            }
            None => (x_var, Vec::new()),
        };
        let w_const = self.tape.leaf_detached(&self.surrogate_weight);

        // Per-class matching terms.
        let mut total: Option<bgc_tensor::Var> = None;
        for class in 0..self.num_classes {
            if !self.is_matched(class) {
                continue;
            }
            let real_grad = self.real_grads[class].grad.clone();
            let syn_idx = &self.syn_class_indices[class];
            let zc = self.tape.row_select(z_syn, syn_idx);
            let logits = self.tape.matmul(zc, w_const);
            let probs = self.tape.softmax_rows(logits);
            #[expect(
                clippy::expect_used,
                reason = "matched classes have synthetic nodes, and `new` builds a one-hot \
                          for exactly those"
            )]
            let onehot = self.class_onehots[class]
                .clone()
                .expect("non-empty classes precompute their one-hot target");
            let onehot = self.tape.const_leaf(onehot);
            let diff = self.tape.sub(probs, onehot);
            let zc_t = self.tape.transpose(zc);
            let grad_syn = self.tape.matmul(zc_t, diff);
            let grad_syn = self.tape.scale(grad_syn, 1.0 / syn_idx.len() as f32);
            let term = self.tape.cosine_match_to_const(grad_syn, real_grad);
            total = Some(match total {
                Some(acc) => self.tape.add(acc, term),
                None => term,
            });
        }
        let total = match total {
            Some(t) => t,
            None => return 0.0,
        };
        let loss_value = self.tape.scalar(total);
        let grads = self.tape.backward(total);

        // Update X'.
        let x_grad = grads.get_or(x_var, &self.x_zero_grad);
        self.feature_opt
            .step(&mut [&mut self.syn_features], &[x_grad]);
        // Update the structure generator (if any).
        if let Some(gen) = &mut self.structure {
            let grad_refs: Vec<&Matrix> = structure_params
                .iter()
                .zip(self.structure_zero_grads.iter())
                .map(|(&v, zero)| grads.get_or(v, zero))
                .collect();
            let mut params = gen.parameters_mut();
            self.structure_opt.step(&mut params, &grad_refs);
        }
        self.tape.absorb(grads);
        self.epochs_done += 1;
        loss_value
    }

    /// Materializes the current condensed graph `S = {A', X', Y'}`.
    pub fn to_condensed(&self) -> CondensedGraph {
        match &self.structure {
            Some(gen) => {
                let adj = gen.materialize(&self.syn_features, self.config.structure_threshold);
                CondensedGraph::new(
                    self.syn_features.clone(),
                    adj,
                    self.syn_labels.clone(),
                    self.num_classes,
                )
            }
            None => CondensedGraph::structure_free(
                self.syn_features.clone(),
                self.syn_labels.clone(),
                self.num_classes,
            ),
        }
    }

    /// Runs the full condensation loop on a single (clean or poisoned) graph:
    /// resample/train the surrogate, then one matching step, for
    /// `config.outer_epochs` iterations.
    ///
    /// The real graph is fixed across the loop, so its representation is
    /// propagated and gathered into class blocks once up front instead of
    /// once per epoch.
    pub fn run(&mut self, graph: &Graph) -> Vec<f32> {
        self.set_real(graph, &self.real_representation(graph));
        let mut losses = Vec::with_capacity(self.config.outer_epochs);
        for epoch in 0..self.config.outer_epochs {
            bgc_runtime::checkpoint();
            bgc_runtime::fault::fire("condense.outer");
            if epoch % self.config.surrogate_resample_every == 0 {
                self.resample_surrogate();
            }
            self.train_surrogate(self.config.surrogate_steps);
            losses.push(self.matching_step());
        }
        losses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_graph::DatasetKind;

    fn quick_state(variant: MatchingVariant) -> (Graph, GradientMatchingState) {
        let graph = DatasetKind::Cora.load_small(1);
        let config = CondensationConfig::quick(0.1);
        let state = GradientMatchingState::new(&graph, variant, config);
        (graph, state)
    }

    #[test]
    fn initialization_matches_label_allocation() {
        let (graph, state) = quick_state(MatchingVariant::GCond);
        assert_eq!(state.num_synthetic(), state.syn_labels.len());
        assert!(state.num_synthetic() >= graph.num_classes);
        assert_eq!(state.syn_features.cols(), graph.num_features());
        // Features were copied from real nodes, hence have unit-ish norm.
        assert!(state.syn_features.frobenius_norm() > 0.0);
    }

    #[test]
    fn matching_step_reduces_loss() {
        let (graph, mut state) = quick_state(MatchingVariant::GCondX);
        state.train_surrogate(5);
        let first = state.step(&graph);
        let mut last = first;
        for _ in 0..30 {
            last = state.step(&graph);
        }
        assert!(
            last < first,
            "matching loss should decrease: {} -> {}",
            first,
            last
        );
        assert_eq!(state.epochs_done(), 31);
    }

    #[test]
    fn structure_variant_materializes_structure() {
        let (graph, mut state) = quick_state(MatchingVariant::GCond);
        state.train_surrogate(3);
        for _ in 0..5 {
            state.step(&graph);
        }
        let condensed = state.to_condensed();
        assert_eq!(condensed.num_nodes(), state.num_synthetic());
        // Adjacency is symmetric.
        for r in 0..condensed.num_nodes() {
            for c in 0..condensed.num_nodes() {
                let a = condensed.adjacency.get(r, c);
                let b = condensed.adjacency.get(c, r);
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn structure_free_variants_have_identity_adjacency() {
        for variant in [MatchingVariant::DcGraph, MatchingVariant::GCondX] {
            let (_, state) = quick_state(variant);
            let condensed = state.to_condensed();
            assert!(
                !condensed.has_structure(1e-6),
                "{} must be structure-free",
                variant.name()
            );
        }
    }

    /// The structure-free shortcut of `synthetic_representation` has the
    /// bits of multiplying `X'` by the row-normalized `0 + I` `K` times, on
    /// an `X'` holding signed zeros, subnormals and the extremes of f32,
    /// for both structure-free variants and every depth; a non-finite `X'`
    /// keeps the product.
    #[test]
    fn structure_free_shortcut_matches_the_identity_product_bit_for_bit() {
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let specials = [
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(3),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE / 4.0,
            f32::MAX,
            -f32::MAX,
            1.5,
            -2.25e-30,
        ];
        for variant in [MatchingVariant::DcGraph, MatchingVariant::GCondX] {
            let (_, mut state) = quick_state(variant);
            let (n, d) = state.syn_features.shape();
            let finite = Matrix::from_fn(n, d, |r, c| specials[(r * 7 + c * 3) % specials.len()]);
            assert!(finite
                .data()
                .iter()
                .any(|v| v.to_bits() == (-0.0f32).to_bits()));
            let mut non_finite = finite.clone();
            non_finite.set(n - 1, 0, f32::INFINITY);
            for x in [finite, non_finite] {
                state.syn_features = x;
                for steps in 0..=3 {
                    state.config.propagation_steps = steps;
                    let prop = state.synthetic_propagation_matrix();
                    assert_eq!(bits(&prop), bits(&Matrix::identity(n)), "{variant:?}");
                    let mut product = state.syn_features.clone();
                    for _ in 0..steps {
                        product = prop.matmul(&product);
                    }
                    assert_eq!(
                        bits(&state.synthetic_representation()),
                        bits(&product),
                        "{variant:?}, K = {steps}"
                    );
                }
            }
        }
    }

    #[test]
    fn surrogate_training_reduces_surrogate_loss() {
        let (_, mut state) = quick_state(MatchingVariant::GCondX);
        let before = state.surrogate_loss();
        state.train_surrogate(30);
        let after = state.surrogate_loss();
        assert!(
            after < before,
            "surrogate loss should decrease: {} -> {}",
            before,
            after
        );
    }

    #[test]
    fn run_matches_a_loop_of_steps_bit_for_bit() {
        // `run` gathers the class blocks once; `step` regathers them every
        // epoch. Stale or misgathered blocks would change the losses and X'.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let graph = DatasetKind::Cora.load_small(3);
        let mut config = CondensationConfig::quick(0.1);
        config.outer_epochs = 6;
        config.surrogate_resample_every = 4;
        for variant in [
            MatchingVariant::DcGraph,
            MatchingVariant::GCond,
            MatchingVariant::GCondX,
        ] {
            let mut ran = GradientMatchingState::new(&graph, variant, config.clone());
            let run_losses = ran.run(&graph);
            let mut stepped = GradientMatchingState::new(&graph, variant, config.clone());
            let mut step_losses = Vec::new();
            for epoch in 0..config.outer_epochs {
                if epoch % config.surrogate_resample_every == 0 {
                    stepped.resample_surrogate();
                }
                stepped.train_surrogate(config.surrogate_steps);
                step_losses.push(stepped.step(&graph));
            }
            let name = variant.name();
            assert_eq!(bits(&run_losses), bits(&step_losses), "{name} losses");
            let (ran, stepped) = (ran.to_condensed(), stepped.to_condensed());
            assert_eq!(
                bits(ran.features.data()),
                bits(stepped.features.data()),
                "{name} X'"
            );
            assert_eq!(
                bits(ran.adjacency.data()),
                bits(stepped.adjacency.data()),
                "{name} A'"
            );
        }
    }

    #[test]
    fn class_batch_matches_the_serial_class_loop_bit_for_bit() {
        // One pool task per class and a serial loop over the classes must
        // give the same real gradients: each class is one kernel call with
        // its own scratch either way.
        let bits = |state: &GradientMatchingState| {
            state
                .real_grads
                .iter()
                .map(|g| {
                    g.grad
                        .data()
                        .iter()
                        .map(|x| x.to_bits())
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        let graph = DatasetKind::Flickr.load_small(5);
        let config = CondensationConfig::quick(0.1);
        let computed = |parallel: bool| {
            let mut state =
                GradientMatchingState::new(&graph, MatchingVariant::GCondX, config.clone());
            state.set_real(&graph, &state.real_representation(&graph));
            state.train_surrogate(config.surrogate_steps);
            state.compute_real_gradients(parallel);
            state
        };
        let (batched, serial) = (computed(true), computed(false));
        let matched = (0..serial.num_classes)
            .filter(|&class| serial.is_matched(class))
            .count();
        assert!(matched > 1, "the batch needs several classes");
        for state in [&batched, &serial] {
            for class in (0..state.num_classes).filter(|&c| state.is_matched(c)) {
                let grad = &state.real_grads[class].grad;
                assert!(grad.frobenius_norm() > 0.0, "class {class} was computed");
            }
        }
        assert_eq!(bits(&batched), bits(&serial));
    }

    #[test]
    fn dc_graph_uses_raw_features() {
        let (graph, state) = quick_state(MatchingVariant::DcGraph);
        let repr = state.real_representation(&graph);
        assert!(repr.approx_eq(&graph.features, 0.0));
        let (graph, state) = quick_state(MatchingVariant::GCond);
        let repr = state.real_representation(&graph);
        assert!(!repr.approx_eq(&graph.features, 1e-6));
    }
}
