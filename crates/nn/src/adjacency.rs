//! A unified handle over sparse (original graph), dense (condensed graph /
//! attached trigger block) and bipartite-block (sampled minibatch) normalized
//! adjacencies, so that every GNN implementation works unchanged on all of
//! them.  Any of them can be handed to a model under an input that already
//! holds its first propagation step ([`AdjacencyRef::after_first_step`]):
//! the sampled trainer's batches and the victims' clean-accuracy pass share
//! one `Â · X` that way.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use bgc_graph::{CondensedGraph, Graph, SampledBatch};
use bgc_tensor::{CsrMatrix, Matrix, Tape, Var};

/// A (typically GCN-normalized) adjacency usable in differentiable message
/// passing.
#[derive(Clone, Debug)]
pub enum AdjacencyRef {
    /// Sparse adjacency of a large original graph.
    Sparse(Arc<CsrMatrix>),
    /// Dense adjacency of a small graph (condensed graph, computation graph
    /// with an attached trigger, ...).
    Dense(Arc<Matrix>),
    /// The bipartite block chain of one sampled minibatch.  Each
    /// [`AdjacencyRef::propagate`] call consumes the next block (shrinking
    /// the node set towards the batch targets), so a `Blocks` adjacency is
    /// **single-use**: build one per forward pass.  Clones share the block
    /// cursor.
    Blocks {
        /// The sampled block chain (input side first).
        batch: Arc<SampledBatch>,
        /// Index of the next block to consume.
        cursor: Arc<AtomicUsize>,
    },
    /// `adj` under an input that already is its first propagation step's
    /// output, computed by the caller: `Â · X` for a whole graph, block 0's
    /// output rows for a block chain.  The first
    /// [`AdjacencyRef::propagate`] consumes that step (block 0 of a chain)
    /// and returns its input unchanged; later steps run on `adj`.  Only for
    /// models whose forward reads the input solely through a first
    /// propagation ([`crate::GnnModel::propagates_input_first`]).
    /// **Single-use** like `Blocks`: clones share the flag.
    FirstStepApplied {
        /// The adjacency whose first step the input already holds.
        adj: Box<AdjacencyRef>,
        /// Whether a propagation consumed the applied step.
        consumed: Arc<AtomicBool>,
    },
}

impl AdjacencyRef {
    /// Normalized adjacency of an original graph.
    pub fn from_graph(graph: &Graph) -> Self {
        AdjacencyRef::Sparse(graph.normalized.clone())
    }

    /// Normalized adjacency of a condensed graph.
    pub fn from_condensed(condensed: &CondensedGraph) -> Self {
        AdjacencyRef::Dense(Arc::new(condensed.normalized_adjacency()))
    }

    /// Wraps an already-normalized dense adjacency.
    pub fn dense(adj: Matrix) -> Self {
        AdjacencyRef::Dense(Arc::new(adj))
    }

    /// Wraps an already-normalized sparse adjacency.
    pub fn sparse(adj: CsrMatrix) -> Self {
        AdjacencyRef::Sparse(Arc::new(adj))
    }

    /// Wraps one minibatch's sampled block chain (fresh cursor); the input
    /// holds the raw features of [`SampledBatch::input_nodes`].
    pub fn blocks(batch: Arc<SampledBatch>) -> Self {
        AdjacencyRef::Blocks {
            batch,
            cursor: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// This adjacency under an input that already holds its first step's
    /// output ([`AdjacencyRef::FirstStepApplied`]): `Â · X` for a whole
    /// graph, `block[0] · X` (one row per destination node of the first
    /// block) for a block chain.
    pub fn after_first_step(self) -> Self {
        AdjacencyRef::FirstStepApplied {
            adj: Box::new(self),
            consumed: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Number of input-side nodes (for `Blocks`: the nodes whose raw
    /// features feed the first block; under an applied first step, the
    /// rows that step outputs).
    pub fn num_nodes(&self) -> usize {
        match self {
            AdjacencyRef::Sparse(a) => a.rows(),
            AdjacencyRef::Dense(a) => a.rows(),
            AdjacencyRef::Blocks { batch, .. } => batch.input_nodes().len(),
            AdjacencyRef::FirstStepApplied { adj, .. } => match &**adj {
                AdjacencyRef::Blocks { batch, .. } => batch.blocks[0].num_dst(),
                whole => whole.num_nodes(),
            },
        }
    }

    /// One step of message passing `Â · h` recorded on the tape.  For
    /// `Blocks` this consumes the next bipartite block: the output has one
    /// row per *destination* node of that block.  An already-applied first
    /// step records nothing and returns `h`.
    pub fn propagate(&self, tape: &mut Tape, h: Var) -> Var {
        match self {
            AdjacencyRef::Sparse(a) => tape.spmm(a.clone(), h),
            AdjacencyRef::Dense(a) => tape.const_matmul(a.clone(), h),
            AdjacencyRef::Blocks { batch, cursor } => {
                let block = Self::take_block(batch, cursor);
                let rows = tape.shape(h).0;
                assert_eq!(
                    rows,
                    block.num_src(),
                    "block propagation: input has {} rows but the block expects {} source nodes \
                     (does the sampled plan's fanout count match the model's propagation depth?)",
                    rows,
                    block.num_src()
                );
                tape.spmm(block.adj.clone(), h)
            }
            AdjacencyRef::FirstStepApplied { adj, consumed } => {
                if consumed.swap(true, Ordering::SeqCst) {
                    return adj.propagate(tape, h);
                }
                Self::check_applied_rows(tape.shape(h).0, adj.skip_first_step());
                h
            }
        }
    }

    /// Restricts `h` to the rows of the *destination* nodes of the block the
    /// next [`AdjacencyRef::propagate`] call will consume — the "self"
    /// operand of architectures like GraphSAGE that combine a propagated
    /// term with the nodes' own representation.  For non-block adjacencies
    /// every node is its own destination, so `h` is returned unchanged
    /// (recording nothing on the tape).
    pub fn dst_restrict(&self, tape: &mut Tape, h: Var) -> Var {
        match self {
            AdjacencyRef::Sparse(_) | AdjacencyRef::Dense(_) => h,
            AdjacencyRef::Blocks { batch, cursor } => {
                let block = Self::peek_block(batch, cursor.load(Ordering::SeqCst));
                tape.row_select(h, &block.dst_in_src)
            }
            AdjacencyRef::FirstStepApplied { adj, consumed } => {
                assert!(
                    consumed.load(Ordering::SeqCst),
                    "dst_restrict before an already-applied first step: the raw input rows \
                     are not available"
                );
                adj.dst_restrict(tape, h)
            }
        }
    }

    /// Non-differentiable propagation `Â · H` for plain matrices (consumes a
    /// block, like [`AdjacencyRef::propagate`]).
    pub fn propagate_matrix(&self, h: &Matrix) -> Matrix {
        match self {
            AdjacencyRef::Sparse(a) => a.spmm(h),
            AdjacencyRef::Dense(a) => a.matmul(h),
            AdjacencyRef::Blocks { batch, cursor } => Self::take_block(batch, cursor).adj.spmm(h),
            AdjacencyRef::FirstStepApplied { adj, consumed } => {
                if consumed.swap(true, Ordering::SeqCst) {
                    return adj.propagate_matrix(h);
                }
                Self::check_applied_rows(h.rows(), adj.skip_first_step());
                h.clone()
            }
        }
    }

    /// Consumes the first propagation step without computing it (block 0
    /// of a chain) and returns the number of rows it outputs.
    fn skip_first_step(&self) -> usize {
        match self {
            AdjacencyRef::Blocks { batch, cursor } => Self::take_block(batch, cursor).num_dst(),
            AdjacencyRef::FirstStepApplied { adj, consumed } => {
                consumed.store(true, Ordering::SeqCst);
                adj.skip_first_step()
            }
            whole => whole.num_nodes(),
        }
    }

    /// Consumes the next block.
    fn take_block<'a>(
        batch: &'a Arc<SampledBatch>,
        cursor: &Arc<AtomicUsize>,
    ) -> &'a bgc_graph::SampledBlock {
        let i = cursor.fetch_add(1, Ordering::SeqCst);
        assert!(
            i < batch.blocks.len(),
            "block adjacency exhausted: the model requested propagation step {} but the \
             sampled plan provides only {} blocks",
            i + 1,
            batch.blocks.len()
        );
        &batch.blocks[i]
    }

    fn check_applied_rows(rows: usize, expected: usize) {
        assert_eq!(
            rows, expected,
            "propagation: the first step is already applied, so the input must have one row \
             per output row of that step ({expected}), not {rows}"
        );
    }

    fn peek_block(batch: &Arc<SampledBatch>, i: usize) -> &bgc_graph::SampledBlock {
        assert!(
            i < batch.blocks.len(),
            "block adjacency exhausted: no block left for propagation step {}",
            i + 1
        );
        &batch.blocks[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_graph::{DatasetKind, NeighborSampler};

    #[test]
    fn sparse_and_dense_propagation_agree() {
        let g = DatasetKind::Cora.load_small(3);
        let sparse = AdjacencyRef::from_graph(&g);
        let dense = AdjacencyRef::dense(g.normalized.to_dense());
        let x = Matrix::from_fn(g.num_nodes(), 3, |r, c| ((r + c) % 5) as f32);
        let a = sparse.propagate_matrix(&x);
        let b = dense.propagate_matrix(&x);
        assert!(a.approx_eq(&b, 1e-4));
        assert_eq!(sparse.num_nodes(), dense.num_nodes());
    }

    #[test]
    fn differentiable_propagation_matches_plain() {
        let g = DatasetKind::Citeseer.load_small(5);
        let adj = AdjacencyRef::from_graph(&g);
        let x = Matrix::from_fn(g.num_nodes(), 2, |r, _| (r % 3) as f32);
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let out = adj.propagate(&mut tape, xv);
        assert!(tape
            .value_ref(out)
            .approx_eq(&adj.propagate_matrix(&x), 1e-5));
    }

    #[test]
    fn block_propagation_consumes_the_chain_towards_the_targets() {
        let g = DatasetKind::Cora.load_small(7);
        let sampler = NeighborSampler::new(vec![0, 0], 1);
        let mut targets: Vec<usize> = g.split.train.iter().copied().take(8).collect();
        targets.sort_unstable();
        let batch = Arc::new(sampler.sample(&g.normalized, &targets, 0));
        let adj = AdjacencyRef::blocks(batch.clone());
        assert_eq!(adj.num_nodes(), batch.input_nodes().len());

        let mut tape = Tape::new();
        let x = tape.leaf(g.features.select_rows(batch.input_nodes()));
        let h1 = adj.propagate(&mut tape, x);
        assert_eq!(tape.shape(h1).0, batch.blocks[0].num_dst());
        // The second step needs the dst restriction before it shrinks again.
        let h1_dst = adj.dst_restrict(&mut tape, h1);
        assert_eq!(tape.shape(h1_dst).0, batch.blocks[1].num_dst());
        let h2 = adj.propagate(&mut tape, h1);
        assert_eq!(tape.shape(h2).0, targets.len());

        // Unbounded blocks reproduce the full-batch propagation bit for bit.
        let full = g.normalized.spmm(&g.normalized.spmm(&g.features));
        let sampled = tape.value_ref(h2);
        for (r, &node) in targets.iter().enumerate() {
            for c in 0..g.num_features() {
                assert_eq!(sampled.get(r, c).to_bits(), full.get(node, c).to_bits());
            }
        }
    }

    #[test]
    fn an_applied_first_step_consumes_block_zero_without_recomputing_it() {
        let g = DatasetKind::Cora.load_small(8);
        let sampler = NeighborSampler::new(vec![2, 2], 4);
        let mut targets: Vec<usize> = g.split.train.iter().copied().take(8).collect();
        targets.sort_unstable();
        let batch = Arc::new(sampler.sample(&g.normalized, &targets, 0));
        let raw = g.features.select_rows(batch.input_nodes());
        let first = batch.blocks[0].adj.spmm(&raw);

        let full = AdjacencyRef::blocks(batch.clone());
        let expected = full.propagate_matrix(&full.propagate_matrix(&raw));
        let applied = AdjacencyRef::blocks(batch.clone()).after_first_step();
        assert_eq!(applied.num_nodes(), batch.blocks[0].num_dst());
        let mut tape = Tape::new();
        let x = tape.leaf(first.clone());
        let h1 = applied.propagate(&mut tape, x);
        assert_eq!(h1, x, "the applied step records nothing");
        let h2 = applied.propagate(&mut tape, h1);
        assert_eq!(tape.value_ref(h2).data(), expected.data());

        let plain = AdjacencyRef::blocks(batch).after_first_step();
        let again = plain.propagate_matrix(&plain.propagate_matrix(&first));
        assert_eq!(again.data(), expected.data());
    }

    #[test]
    fn an_applied_first_step_on_a_whole_graph_skips_one_spmm() {
        let g = DatasetKind::Cora.load_small(9);
        let full = AdjacencyRef::from_graph(&g);
        let expected = full.propagate_matrix(&full.propagate_matrix(&g.features));
        let applied = full.after_first_step();
        assert_eq!(applied.num_nodes(), g.num_nodes());
        let mut tape = Tape::new();
        let x = tape.const_leaf(Arc::new(g.normalized.spmm(&g.features)));
        let h1 = applied.propagate(&mut tape, x);
        assert_eq!(h1, x, "the applied step records nothing");
        let h2 = applied.propagate(&mut tape, h1);
        assert_eq!(tape.value_ref(h2).data(), expected.data());
    }

    #[test]
    #[should_panic(expected = "already-applied first step")]
    fn dst_restrict_before_an_applied_first_step_panics() {
        let g = DatasetKind::Cora.load_small(2);
        let sampler = NeighborSampler::new(vec![2], 0);
        let targets = vec![g.split.train.iter().copied().min().unwrap()];
        let batch = Arc::new(sampler.sample(&g.normalized, &targets, 0));
        let adj = AdjacencyRef::blocks(batch.clone()).after_first_step();
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::zeros(batch.blocks[0].num_dst(), g.num_features()));
        let _ = adj.dst_restrict(&mut tape, x);
    }

    #[test]
    #[should_panic(expected = "block adjacency exhausted")]
    fn exhausting_the_block_chain_panics() {
        let g = DatasetKind::Cora.load_small(2);
        let sampler = NeighborSampler::new(vec![2], 0);
        let targets = vec![g.split.train.iter().copied().min().unwrap()];
        let batch = Arc::new(sampler.sample(&g.normalized, &targets, 0));
        let adj = AdjacencyRef::blocks(batch.clone());
        let mut tape = Tape::new();
        let x = tape.leaf(g.features.select_rows(batch.input_nodes()));
        let h = adj.propagate(&mut tape, x);
        let _ = adj.propagate(&mut tape, h); // one block only
    }
}
