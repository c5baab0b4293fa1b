//! The trigger attachment operator `a(G_C^i, g_i)` (Eq. 2/4) and the
//! construction of the poisoned graph `G_P`.
//!
//! Two forms of attachment are needed:
//!
//! * **Computation-graph attachment** — for the trigger-generator update
//!   (Eq. 13/17) and for ASR evaluation, a trigger block is appended to the
//!   k-hop computation graph of a single node and the combined adjacency is
//!   re-normalized; the trigger features may be differentiable tape variables.
//!   An [`AttachedGraph`] is the computation graph's node ids plus that
//!   attached adjacency: its input is the graph's feature rows of those ids
//!   followed by the trigger block, gathered where it is read
//!   ([`AttachedGraph::input`], [`bgc_tensor::Tape::propagate_row`]), so the
//!   attack loop's extraction cache holds no copy of the graph's features.
//! * **Full-graph attachment** — to build the poisoned graph `G_P` that the
//!   condensation step consumes (Eq. 14/18), trigger nodes are appended to
//!   the original graph, each group fully connected internally, linked to its
//!   poisoned node, labelled with the target class and added to the training
//!   split; the poisoned node itself is relabelled to the target class.
//!   `PoisonedGraph` keeps `G_P` and its propagated features across the
//!   epochs of a condensation loop and updates both in place when the
//!   triggers change.

use std::sync::Arc;

use bgc_graph::{k_hop_subgraph, ComputationGraph, Graph, NeighborSampler};
use bgc_nn::{AdjacencyRef, TrainingPlan};
use bgc_tensor::Matrix;

use crate::config::BgcConfig;

/// A computation graph with an attached (fully connected) trigger block:
/// node ids and the attached adjacency, no feature rows.
#[derive(Clone, Debug)]
pub struct AttachedGraph {
    /// The computation graph's nodes in original-graph indexing, centre
    /// first: the attached graph's first rows.
    pub nodes: Vec<usize>,
    /// GCN-normalized dense adjacency of `computation graph + trigger block`.
    /// Trigger rows occupy the last `trigger_size` positions.
    pub norm_adj: Arc<Matrix>,
    /// Row index of the centre node (always 0).
    pub center: usize,
    /// Number of trigger nodes.
    pub trigger_size: usize,
}

impl AttachedGraph {
    /// Total number of nodes including the trigger block.
    pub fn total_nodes(&self) -> usize {
        self.nodes.len() + self.trigger_size
    }

    /// Wraps the dense normalized adjacency for GNN forward passes.
    pub fn adjacency_ref(&self) -> AdjacencyRef {
        AdjacencyRef::Dense(self.norm_adj.clone())
    }

    /// The attached graph's input for non-differentiable evaluation: the
    /// rows of `features` (the graph's feature matrix) at the computation
    /// graph's nodes, then the trigger block.
    pub fn input(&self, features: &Matrix, trigger_features: &Matrix) -> Matrix {
        let d = features.cols();
        assert_eq!(
            trigger_features.shape(),
            (self.trigger_size, d),
            "trigger feature block has the wrong shape"
        );
        let mut data = Vec::with_capacity(self.total_nodes() * d);
        for &id in &self.nodes {
            data.extend_from_slice(features.row(id));
        }
        data.extend_from_slice(trigger_features.data());
        Matrix::new(self.total_nodes(), d, data)
    }
}

/// Builds the dense, GCN-normalized adjacency of a computation graph with a
/// fully connected trigger block, every node of which links to `center`.
fn normalized_attached_adjacency(
    sub_adj: &bgc_tensor::CsrMatrix,
    trigger_size: usize,
    center: usize,
) -> Matrix {
    let n_sub = sub_adj.rows();
    let total = n_sub + trigger_size;
    let mut a = Matrix::zeros(total, total);
    for (r, c, v) in sub_adj.triplets() {
        a.set(r, c, v);
    }
    // Fully connected trigger block.
    for i in 0..trigger_size {
        for j in 0..trigger_size {
            if i != j {
                a.set(n_sub + i, n_sub + j, 1.0);
            }
        }
    }
    // Link every trigger node to the centre node (the trigger subgraph is
    // attached to v_i).
    for t in 0..trigger_size {
        a.set(center, n_sub + t, 1.0);
        a.set(n_sub + t, center, 1.0);
    }
    // Self-loops + symmetric normalization.
    for i in 0..total {
        let v = a.get(i, i);
        a.set(i, i, v + 1.0);
    }
    let deg: Vec<f32> = (0..total).map(|r| a.row(r).iter().sum()).collect();
    let inv_sqrt: Vec<f32> = deg
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    Matrix::from_fn(total, total, |r, c| a.get(r, c) * inv_sqrt[r] * inv_sqrt[c])
}

/// Attaches a trigger block of the given size to the computation graph
/// `sub` (trigger features to be supplied separately).
fn attach(sub: ComputationGraph, trigger_size: usize) -> AttachedGraph {
    let norm_adj = normalized_attached_adjacency(&sub.adjacency, trigger_size, sub.center);
    AttachedGraph {
        nodes: sub.nodes,
        norm_adj: Arc::new(norm_adj),
        center: sub.center,
        trigger_size,
    }
}

/// Extracts the k-hop computation graph of `node` and attaches a trigger
/// block of the given size (features to be supplied separately).
pub fn attach_to_computation_graph(
    graph: &Graph,
    node: usize,
    trigger_size: usize,
    khop: usize,
    max_per_hop: usize,
) -> AttachedGraph {
    let sub = k_hop_subgraph(graph, node, khop, Some(max_per_hop));
    attach(sub, trigger_size)
}

/// Attachment used by the ASR evaluation.  Full-batch plans keep the
/// deterministic first-k capped extraction of
/// [`attach_to_computation_graph`].  Sampled plans extract a *sampled*
/// computation graph (randomized, fanout-capped neighbour draws through the
/// deterministic [`NeighborSampler`], one cap per hop), so the trigger
/// joins the kind of computation graph the sampled training pipeline sees;
/// `seed` keys the draws, so extraction is a pure function of
/// `(graph, node, fanouts, seed)`.
pub fn attach_for_evaluation(
    graph: &Graph,
    node: usize,
    trigger_size: usize,
    config: &BgcConfig,
    plan: &TrainingPlan,
    seed: u64,
) -> AttachedGraph {
    match plan {
        TrainingPlan::FullBatch => attach_to_computation_graph(
            graph,
            node,
            trigger_size,
            config.khop,
            config.max_neighbors_per_hop,
        ),
        TrainingPlan::Sampled(sampled) => {
            let sampler = NeighborSampler::new(sampled.fanouts.clone(), seed ^ 0x47ac);
            attach(sampler.sampled_computation_graph(graph, node), trigger_size)
        }
    }
}

/// Builds the poisoned graph `G_P`: appends one fully connected trigger group
/// per poisoned node (features taken from consecutive blocks of
/// `trigger_features`), links it to the poisoned node, labels everything with
/// `target_class` and adds the trigger nodes to the training split.
pub fn build_poisoned_graph(
    graph: &Graph,
    poisoned_nodes: &[usize],
    trigger_features: &Matrix,
    trigger_size: usize,
    target_class: usize,
) -> Graph {
    assert_eq!(
        trigger_features.rows(),
        poisoned_nodes.len() * trigger_size,
        "expected {} trigger rows ({} nodes x size {}), got {}",
        poisoned_nodes.len() * trigger_size,
        poisoned_nodes.len(),
        trigger_size,
        trigger_features.rows()
    );
    let n_old = graph.num_nodes();
    let new_labels = vec![target_class; trigger_features.rows()];
    let mut new_edges = Vec::new();
    let mut extra_train = Vec::new();
    for (j, &node) in poisoned_nodes.iter().enumerate() {
        let base = n_old + j * trigger_size;
        for a in 0..trigger_size {
            extra_train.push(base + a);
            // Link every trigger node of the group to its poisoned node.
            new_edges.push((node, base + a));
            // Fully connect the group.
            for b in (a + 1)..trigger_size {
                new_edges.push((base + a, base + b));
            }
        }
    }
    let relabel: Vec<(usize, usize)> = poisoned_nodes.iter().map(|&n| (n, target_class)).collect();
    graph.with_appended_nodes(
        trigger_features,
        &new_labels,
        &new_edges,
        &relabel,
        &extra_train,
    )
}

/// The poisoned graph `G_P` of a condensation loop that re-attaches fresh
/// triggers every epoch, kept together with its propagated features
/// `Â_P^i X_P` (`i = 1..=K`) and updated in place.
///
/// `G_P`'s structure (attachment pattern, labels, split, normalization) is
/// fixed; only its trigger rows change.  [`PoisonedGraph::set_triggers`]
/// overwrites those rows and then, per hop, recomputes only the rows whose
/// receptive field holds a trigger row: `D_0` is the trigger rows and `D_i`
/// the rows of `Â_P` with a stored column in `D_{i-1}`.  Every other row
/// of layer `i` reads only rows of layer `i - 1` that did not change, and
/// the recompute runs [`bgc_tensor::CsrMatrix::spmm`]'s per-row body, so
/// every layer is bit-identical to a full [`Graph::propagated_features`].
pub(crate) struct PoisonedGraph {
    /// `G_P`; its feature matrix is layer 0 and holds the current triggers.
    graph: Graph,
    /// `Â_P^i X_P` for `i = 1..=K`.
    layers: Vec<Matrix>,
    /// `D_0..=D_K`, each ascending.
    row_sets: Vec<Vec<usize>>,
}

impl PoisonedGraph {
    /// Builds `G_P` with [`build_poisoned_graph`] and zero trigger rows,
    /// propagates it `steps` hops once and derives the row sets.  It holds
    /// zero triggers until the first [`PoisonedGraph::set_triggers`].
    pub(crate) fn new(
        graph: &Graph,
        poisoned_nodes: &[usize],
        trigger_size: usize,
        target_class: usize,
        steps: usize,
    ) -> Self {
        let triggers = Matrix::zeros(poisoned_nodes.len() * trigger_size, graph.num_features());
        let poisoned =
            build_poisoned_graph(graph, poisoned_nodes, &triggers, trigger_size, target_class);
        let adj = &poisoned.normalized;
        let mut layers: Vec<Matrix> = Vec::with_capacity(steps);
        for _ in 0..steps {
            let next = adj.spmm(layers.last().unwrap_or(&*poisoned.features));
            layers.push(next);
        }
        let n = poisoned.num_nodes();
        let mut row_sets = vec![(graph.num_nodes()..n).collect::<Vec<usize>>()];
        let mut in_prev = vec![false; n];
        for i in 0..steps {
            in_prev.fill(false);
            for &r in &row_sets[i] {
                in_prev[r] = true;
            }
            let next = (0..n)
                .filter(|&r| adj.row_indices(r).iter().any(|&c| in_prev[c]))
                .collect();
            row_sets.push(next);
        }
        Self {
            graph: poisoned,
            layers,
            row_sets,
        }
    }

    /// Writes `trigger_features` (consecutive `trigger_size`-row blocks, one
    /// per poisoned node, as in [`build_poisoned_graph`]) into `G_P` and
    /// re-propagates the rows they reach.
    ///
    /// # Panics
    /// Panics unless the block has `|V_P| * trigger_size` rows of `G_P`'s
    /// feature width.
    pub(crate) fn set_triggers(&mut self, trigger_features: &Matrix) {
        let trigger_rows = self.row_sets[0].len();
        assert_eq!(
            trigger_features.shape(),
            (trigger_rows, self.graph.num_features()),
            "expected {} trigger rows of width {}, got {:?}",
            trigger_rows,
            self.graph.num_features(),
            trigger_features.shape()
        );
        // The `Arc` is unique unless a caller cloned `graph()`, so
        // `make_mut` writes in place.
        let features = Arc::make_mut(&mut self.graph.features);
        let start = (features.rows() - trigger_rows) * features.cols();
        features.data_mut()[start..].copy_from_slice(trigger_features.data());
        for (i, rows) in self.row_sets.iter().enumerate().skip(1) {
            let (done, rest) = self.layers.split_at_mut(i - 1);
            let input = done.last().unwrap_or(&*self.graph.features);
            self.graph
                .normalized
                .spmm_rows_into(input, rows, &mut rest[0]);
        }
    }

    /// `G_P` with the triggers of the last [`PoisonedGraph::set_triggers`].
    pub(crate) fn graph(&self) -> &Graph {
        &self.graph
    }

    /// `Â_P^K X_P` (`X_P` itself for `K = 0`).
    pub(crate) fn representation(&self) -> &Matrix {
        self.layers.last().unwrap_or(&*self.graph.features)
    }

    /// `D_K`: the rows of [`PoisonedGraph::representation`] that
    /// [`PoisonedGraph::set_triggers`] rewrites, ascending. Every other row
    /// keeps its value from one call to the next.
    pub(crate) fn rewritten_rows(&self) -> &[usize] {
        self.row_sets.last().map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_condense::working_graph;
    use bgc_graph::DatasetKind;
    use bgc_tensor::init::{randn, rng_from_seed};

    #[test]
    fn attached_adjacency_is_normalized_and_contains_trigger_links() {
        let graph = DatasetKind::Cora.load_small(1);
        let node = graph.split.train[0];
        let attached = attach_to_computation_graph(&graph, node, 3, 2, 8);
        assert_eq!(attached.center, 0);
        assert_eq!(attached.nodes[0], node);
        let sub_nodes = attached.nodes.len();
        assert_eq!(attached.total_nodes(), sub_nodes + 3);
        let a = &attached.norm_adj;
        // Symmetric.
        for r in 0..attached.total_nodes() {
            for c in 0..attached.total_nodes() {
                assert!((a.get(r, c) - a.get(c, r)).abs() < 1e-5);
            }
        }
        // Centre connects to the first trigger node.
        assert!(a.get(attached.center, sub_nodes) > 0.0);
        // Trigger block is fully connected.
        assert!(a.get(sub_nodes, sub_nodes + 1) > 0.0);
        assert!(a.get(sub_nodes + 1, sub_nodes + 2) > 0.0);
    }

    /// The input gathered from node ids has the bits of the copied rows
    /// stacked on the trigger block, under both extractions.
    #[test]
    fn combined_features_stack_in_the_right_order() {
        let graph = DatasetKind::Cora.load_small(2);
        let config = BgcConfig::quick();
        let sampled = TrainingPlan::Sampled(bgc_nn::SampledPlan {
            fanouts: vec![3, 3],
            batch_size: 64,
        });
        let mut rng = rng_from_seed(0);
        for plan in [TrainingPlan::FullBatch, sampled] {
            for &node in &graph.split.test[..20] {
                let attached = attach_for_evaluation(&graph, node, 2, &config, &plan, 5);
                let trig = randn(2, graph.num_features(), 0.0, 1.0, &mut rng);
                let combined = attached.input(&graph.features, &trig);
                let copied = graph.features.select_rows(&attached.nodes).vstack(&trig);
                assert_eq!(bits(&combined), bits(&copied), "node {node}, {plan:?}");
                assert_eq!(combined.rows(), attached.total_nodes());
                assert_eq!(combined.row(0), graph.features.row(node));
                assert_eq!(
                    combined.row(attached.nodes.len()),
                    trig.row(0),
                    "trigger rows follow the computation-graph rows"
                );
            }
        }
    }

    #[test]
    fn poisoned_graph_has_expected_shape_and_labels() {
        let graph = DatasetKind::Cora.load_small(3);
        let poisoned: Vec<usize> = graph.split.train[..3].to_vec();
        let mut rng = rng_from_seed(1);
        let trig = randn(3 * 4, graph.num_features(), 0.0, 0.1, &mut rng);
        let gp = build_poisoned_graph(&graph, &poisoned, &trig, 4, 0);
        assert_eq!(gp.num_nodes(), graph.num_nodes() + 12);
        // Poisoned nodes are relabelled to the target class.
        for &p in &poisoned {
            assert_eq!(gp.labels[p], 0);
        }
        // Trigger nodes carry the target label and are in the training split.
        for t in graph.num_nodes()..gp.num_nodes() {
            assert_eq!(gp.labels[t], 0);
            assert!(gp.split.train.contains(&t));
        }
        // Each poisoned node gained exactly one trigger edge.
        for (j, &p) in poisoned.iter().enumerate() {
            let first_trigger = graph.num_nodes() + j * 4;
            assert!(gp.adjacency.get(p, first_trigger) > 0.0);
        }
        // The training split grew by exactly the trigger nodes.
        assert_eq!(gp.split.train.len(), graph.split.train.len() + 12);
    }

    /// GTA and the kernel-method tail condense a poisoned graph built on the
    /// working graph.  On Flickr and Reddit that graph is its own working
    /// graph, so condensing it derives no copy and changes no bit.
    #[test]
    fn a_poisoned_working_graph_is_its_own_working_graph() {
        let csr = |m: &bgc_tensor::CsrMatrix| -> Vec<(usize, usize, u32)> {
            m.triplets()
                .into_iter()
                .map(|(r, c, v)| (r, c, v.to_bits()))
                .collect()
        };
        let bits = |g: &Graph| {
            let features: Vec<u32> = g.features.data().iter().map(|v| v.to_bits()).collect();
            (
                features,
                csr(&g.adjacency),
                csr(&g.normalized),
                g.labels.clone(),
                g.split.clone(),
            )
        };
        for dataset in [DatasetKind::Flickr, DatasetKind::Reddit] {
            let work = working_graph(&dataset.load_small(2));
            let poisoned: Vec<usize> = work.split.train[..3].to_vec();
            let trig = randn(3 * 2, work.num_features(), 0.0, 0.1, &mut rng_from_seed(2));
            let gp = build_poisoned_graph(&work, &poisoned, &trig, 2, 0);
            let again = working_graph(&gp);
            assert!(Arc::ptr_eq(&again.features, &gp.features), "{dataset:?}");
            assert!(Arc::ptr_eq(&again.normalized, &gp.normalized));
            assert_eq!(bits(&gp.training_subgraph()), bits(&gp), "{dataset:?}");
        }
    }

    #[test]
    #[should_panic(expected = "trigger rows")]
    fn mismatched_trigger_rows_panic() {
        let graph = DatasetKind::Cora.load_small(4);
        let poisoned: Vec<usize> = graph.split.train[..2].to_vec();
        let trig = Matrix::zeros(3, graph.num_features());
        let _ = build_poisoned_graph(&graph, &poisoned, &trig, 2, 0);
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn poisoned_graph_row_sets_are_the_k_hop_closure_of_the_trigger_rows() {
        let graph = DatasetKind::Cora.load_small(5);
        let nodes: Vec<usize> = graph.split.train[..4].to_vec();
        let poisoned = PoisonedGraph::new(&graph, &nodes, 3, 0, 3);
        let gp = poisoned.graph();
        // Breadth-first closure over the raw adjacency (every node reaches
        // itself through the self-loop `Â` adds).
        let mut closure: Vec<usize> = (graph.num_nodes()..gp.num_nodes()).collect();
        assert_eq!(poisoned.row_sets[0], closure);
        for hop in 1..=3 {
            let mut next = closure.clone();
            for &r in &closure {
                next.extend_from_slice(gp.adjacency.row_indices(r));
            }
            next.sort_unstable();
            next.dedup();
            closure = next;
            assert_eq!(poisoned.row_sets[hop], closure, "hop {hop}");
        }
        assert!(
            poisoned.row_sets[3].len() > poisoned.row_sets[1].len(),
            "the closure must grow for this test to bite"
        );
    }

    #[test]
    #[should_panic(expected = "trigger rows")]
    fn poisoned_graph_rejects_a_mismatched_trigger_block() {
        let graph = DatasetKind::Cora.load_small(4);
        let nodes: Vec<usize> = graph.split.train[..2].to_vec();
        let mut poisoned = PoisonedGraph::new(&graph, &nodes, 2, 0, 2);
        poisoned.set_triggers(&Matrix::zeros(3, graph.num_features()));
    }

    #[test]
    fn poisoned_graph_updates_in_place_bit_identically_to_a_rebuild() {
        let graph = DatasetKind::Cora.load_small(6);
        let nodes: Vec<usize> = graph.split.train[..5].to_vec();
        let (size, target) = (3, 1);
        let mut rng = rng_from_seed(7);
        for k in 0..=3 {
            let mut poisoned = PoisonedGraph::new(&graph, &nodes, size, target, k);
            for _ in 0..3 {
                let trig = randn(nodes.len() * size, graph.num_features(), 0.0, 1.0, &mut rng);
                poisoned.set_triggers(&trig);
                let rebuilt = build_poisoned_graph(&graph, &nodes, &trig, size, target);
                assert_eq!(
                    poisoned.graph().content_fingerprint(),
                    rebuilt.content_fingerprint(),
                    "G_P must equal a rebuild (K = {k})"
                );
                assert_eq!(
                    bits(poisoned.representation()),
                    bits(&poisoned.graph().propagated_features(k)),
                    "in-place layer {k} diverged from a full propagation"
                );
            }
        }
    }
}
