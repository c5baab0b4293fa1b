//! Deterministic layer-wise neighbour sampling — the minibatch data plane.
//!
//! Full-batch message passing materializes `Â · H` over the whole graph,
//! which caps the reproduction at toy dataset sizes.  This module provides
//! the sampled alternative used by [`bgc-nn`]'s `TrainingPlan::Sampled`
//! path: a seed-keyed, thread-count-independent [`NeighborSampler`] that
//! turns a batch of target nodes into a chain of bipartite [`SampledBlock`]s
//! (one per message-passing step), each a row-slice of the graph's
//! GCN-normalized CSR adjacency with an optional per-row fanout cap.
//!
//! Design invariants:
//!
//! * **Exact rows under no cap.**  With `fanout = 0` (unbounded) a block row
//!   is the *identical* slice of the normalized adjacency row — same values,
//!   same ascending column order — so a block forward pass reproduces the
//!   full-batch forward pass bit for bit on the covered rows.
//! * **Sorted node lists.**  `dst_nodes` and `src_nodes` are ascending global
//!   node ids, which keeps the floating-point accumulation order of sparse
//!   and dense products aligned with the full-batch operators.
//! * **Determinism.**  All randomness flows from `seed ^ mix(batch key,
//!   layer)` through the workspace `StdRng`; sampling never touches the
//!   thread pool, so blocks are bit-identical for every thread count and
//!   execution order.

use std::sync::Arc;

use rand::rngs::StdRng;

use bgc_tensor::init::{rng_from_seed, sample_without_replacement};
use bgc_tensor::CsrMatrix;

use crate::graph::Graph;
use crate::subgraph::{ComputationGraph, Included};

/// Mixes auxiliary words into a seed (FNV-1a over the little-endian bytes).
/// Shared by the sampler and by callers deriving per-batch seeds.
pub fn mix_seed(words: &[u64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for b in word.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// One bipartite message-passing operator: `|dst| x |src|` rows sliced from
/// the normalized adjacency, mapping source-node features to destination-node
/// messages (`h_dst = block · h_src`).
#[derive(Clone, Debug)]
pub struct SampledBlock {
    /// Destination (output) nodes, ascending global ids.
    pub dst_nodes: Vec<usize>,
    /// Source (input) nodes, ascending global ids; a superset of `dst_nodes`.
    pub src_nodes: Vec<usize>,
    /// `dst_in_src[i]` is the position of `dst_nodes[i]` inside `src_nodes`.
    pub dst_in_src: Vec<usize>,
    /// The `|dst| x |src|` operator (row `i` belongs to `dst_nodes[i]`,
    /// columns index `src_nodes`).
    pub adj: Arc<CsrMatrix>,
}

impl SampledBlock {
    /// Number of destination nodes.
    pub fn num_dst(&self) -> usize {
        self.dst_nodes.len()
    }

    /// Number of source nodes.
    pub fn num_src(&self) -> usize {
        self.src_nodes.len()
    }
}

/// The block chain of one minibatch: `blocks[0]` consumes the raw input
/// features of [`SampledBatch::input_nodes`]; `blocks.last()` produces rows
/// for exactly [`SampledBatch::targets`].
#[derive(Clone, Debug)]
pub struct SampledBatch {
    /// Bipartite operators, input side first.
    pub blocks: Vec<SampledBlock>,
    /// The batch's target nodes (ascending global ids).
    pub targets: Vec<usize>,
}

impl SampledBatch {
    /// Global ids of the nodes whose raw features feed the first block.
    pub fn input_nodes(&self) -> &[usize] {
        self.blocks
            .first()
            .map(|b| b.src_nodes.as_slice())
            .unwrap_or(&self.targets)
    }

    /// Number of message-passing steps.
    pub fn num_layers(&self) -> usize {
        self.blocks.len()
    }

    /// Positions of the targets inside `nodes`, one of the chain's
    /// ascending node lists: [`SampledBatch::input_nodes`] or a block's
    /// destination nodes (models without any propagation step, e.g. an MLP,
    /// produce outputs sized like their input; this maps target rows back
    /// out).
    pub fn target_positions_in(&self, nodes: &[usize]) -> Vec<usize> {
        // Every target is included in each node list by construction;
        // filtering (rather than panicking) keeps a malformed batch
        // degraded instead of fatal.
        self.targets
            .iter()
            .filter_map(|t| nodes.binary_search(t).ok())
            .collect()
    }
}

/// Seed-keyed layer-wise neighbour sampler over a normalized CSR adjacency.
#[derive(Clone, Debug)]
pub struct NeighborSampler {
    fanouts: Vec<usize>,
    seed: u64,
}

impl NeighborSampler {
    /// A sampler with one fanout cap per message-passing step
    /// (`fanouts[0]` governs the input-side step; `0` means unbounded).
    pub fn new(fanouts: Vec<usize>, seed: u64) -> Self {
        assert!(!fanouts.is_empty(), "need at least one fanout / layer");
        Self { fanouts, seed }
    }

    /// The per-layer fanout caps.
    pub fn fanouts(&self) -> &[usize] {
        &self.fanouts
    }

    /// Whether step `layer` keeps a destination row with `row_nnz` stored
    /// entries verbatim — the identical slice of the normalized adjacency
    /// row — instead of capping it.  A verbatim row's block output is the
    /// node's row of the full-graph product `Â · H`.
    pub fn keeps_row_verbatim(&self, layer: usize, row_nnz: usize) -> bool {
        row_is_verbatim(self.fanouts[layer], row_nnz)
    }

    /// Samples the block chain for one batch of target nodes.
    ///
    /// `targets` must be strictly ascending (sorted, unique); `key`
    /// distinguishes batches (e.g. `mix_seed(&[epoch, batch_index])`) so
    /// every batch draws from its own RNG stream regardless of execution
    /// order.
    pub fn sample(&self, normalized: &CsrMatrix, targets: &[usize], key: u64) -> SampledBatch {
        let mut ws = SamplerWorkspace::new();
        self.sample_into(normalized, targets, key, &mut ws)
    }

    /// [`NeighborSampler::sample`] with caller-owned scratch: the hot
    /// minibatch loop reuses one [`SamplerWorkspace`] across batches so
    /// steady-state sampling performs no per-row allocations. Output is
    /// bit-identical to [`NeighborSampler::sample`] (the workspace never
    /// affects the RNG stream or entry order).
    pub fn sample_into(
        &self,
        normalized: &CsrMatrix,
        targets: &[usize],
        key: u64,
        ws: &mut SamplerWorkspace,
    ) -> SampledBatch {
        assert!(!targets.is_empty(), "cannot sample an empty batch");
        assert!(
            targets.windows(2).all(|w| w[0] < w[1]),
            "targets must be strictly ascending"
        );
        let mut blocks_rev: Vec<SampledBlock> = Vec::with_capacity(self.fanouts.len());
        let mut dst: Vec<usize> = targets.to_vec();
        // Sample from the output side towards the input side: the dst set of
        // step `l` is the src set of step `l + 1`.
        for (depth, &fanout) in self.fanouts.iter().rev().enumerate() {
            let layer = self.fanouts.len() - 1 - depth;
            let mut rng = rng_from_seed(self.seed ^ mix_seed(&[key, layer as u64]));
            let block = sample_block(normalized, &dst, fanout, &mut rng, ws);
            dst = block.src_nodes.clone();
            blocks_rev.push(block);
        }
        blocks_rev.reverse();
        SampledBatch {
            blocks: blocks_rev,
            targets: targets.to_vec(),
        }
    }

    /// Extracts a sampled computation graph around `center`: the randomized,
    /// fanout-capped counterpart of [`crate::subgraph::k_hop_subgraph`]
    /// (which always takes the *first* `cap` neighbours).  Used by the
    /// trigger-attachment operator under a sampled plan, so the trigger
    /// subgraph joins the same kind of computation graph the sampled victim
    /// trains on.  A fanout of `0` expands every neighbour of that hop.
    pub fn sampled_computation_graph(&self, graph: &Graph, center: usize) -> ComputationGraph {
        assert!(center < graph.num_nodes(), "center node out of range");
        let mut rng = rng_from_seed(self.seed ^ mix_seed(&[center as u64, 0x5ab]));
        let mut included = Included::new(center);
        let mut frontier = vec![center];
        for &fanout in self.fanouts.iter().rev() {
            let mut next = Vec::new();
            for &u in &frontier {
                let fresh: Vec<usize> = graph
                    .adjacency
                    .row_indices(u)
                    .iter()
                    .copied()
                    .filter(|&v| !included.contains(v))
                    .collect();
                let chosen: Vec<usize> = if fanout == 0 || fresh.len() <= fanout {
                    fresh
                } else {
                    let mut picked = sample_without_replacement(fresh.len(), fanout, &mut rng);
                    picked.sort_unstable();
                    picked.into_iter().map(|i| fresh[i]).collect()
                };
                for v in chosen {
                    included.insert(v);
                    next.push(v);
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        included.into_graph(&graph.adjacency)
    }
}

/// Reusable scratch for [`NeighborSampler::sample_into`]: per-node marker /
/// position tables plus flat per-row entry buffers. One workspace serves any
/// number of batches (capacity grows to the largest block seen and is
/// reused), which removes the ~tens of thousands of short-lived `Vec`
/// allocations per batch the original per-row formulation performed.
///
/// The workspace is pure scratch: it never influences the RNG stream or the
/// produced blocks, so `sample_into` with a recycled workspace is
/// bit-identical to a fresh [`NeighborSampler::sample`].
#[derive(Debug, Default)]
pub struct SamplerWorkspace {
    /// `seen[node]`: node is in the block's source set (cleared per block).
    seen: Vec<bool>,
    /// `pos[node]`: local column of `node` in the block's `src_nodes`
    /// (only meaningful while `seen[node]`).
    pos: Vec<u32>,
    /// Current capped row's entries, ascending columns.
    row_scratch: Vec<(usize, f32)>,
    /// Current capped row's non-diagonal entries, ascending columns.
    others: Vec<(usize, f32)>,
    /// Fisher–Yates pool for `sample_without_replacement`-identical draws.
    pool: Vec<usize>,
    /// Sorted picked indices into `others`.
    picked: Vec<usize>,
    /// Kept (global column, value) entries of all rows, flattened.
    kept_cols: Vec<usize>,
    kept_vals: Vec<f32>,
    /// `kept_*` prefix length after each dst row.
    row_ends: Vec<usize>,
}

impl SamplerWorkspace {
    /// An empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_nodes(&mut self, num_nodes: usize) {
        assert!(
            num_nodes <= u32::MAX as usize,
            "sampler workspace supports at most u32::MAX nodes"
        );
        if self.seen.len() < num_nodes {
            self.seen.resize(num_nodes, false);
            self.pos.resize(num_nodes, 0);
        }
    }
}

/// Draws `take` distinct indices from `0..n` into `ws.picked` (sorted
/// ascending), consuming exactly the RNG stream of
/// [`sample_without_replacement`] — same partial Fisher–Yates, same
/// `gen_range` calls — but into reused buffers.
fn sample_indices_into(n: usize, take: usize, rng: &mut StdRng, ws: &mut SamplerWorkspace) {
    use rand::Rng;
    ws.pool.clear();
    ws.pool.extend(0..n);
    for i in 0..take {
        let j = rng.gen_range(i..n);
        ws.pool.swap(i, j);
    }
    ws.picked.clear();
    ws.picked.extend_from_slice(&ws.pool[..take]);
    ws.picked.sort_unstable();
}

/// The verbatim-row rule of [`sample_block`]: an unbounded step, or a row
/// the cap does not bite on.
fn row_is_verbatim(fanout: usize, row_nnz: usize) -> bool {
    fanout == 0 || row_nnz <= fanout
}

/// Builds one bipartite block: for every dst node, slice its normalized
/// adjacency row; rows above the fanout cap keep their diagonal entry and a
/// uniform sample of `fanout` neighbours, rescaled by `others / kept` so the
/// expected message matches the uncapped row.
///
/// Entries are gathered into the workspace's flat buffers (ascending columns
/// per row by construction) and the block CSR is assembled directly — no
/// per-row `Vec`s, no triplet sort. Zero-valued entries are dropped exactly
/// like `CsrMatrix::from_triplets` would, so the result is bit-identical to
/// the original triplet-based formulation.
fn sample_block(
    normalized: &CsrMatrix,
    dst: &[usize],
    fanout: usize,
    rng: &mut StdRng,
    ws: &mut SamplerWorkspace,
) -> SampledBlock {
    ws.ensure_nodes(normalized.cols());
    ws.kept_cols.clear();
    ws.kept_vals.clear();
    ws.row_ends.clear();

    for &v in dst {
        if row_is_verbatim(fanout, normalized.row_nnz(v)) {
            // Uncapped: the row is kept verbatim (ascending columns).
            for (c, val) in normalized.row_iter(v) {
                if val != 0.0 {
                    ws.kept_cols.push(c);
                    ws.kept_vals.push(val);
                }
            }
            ws.row_ends.push(ws.kept_cols.len());
            continue;
        }
        // Capped: keep the diagonal, sample `fanout` of the others, rescale.
        ws.row_scratch.clear();
        ws.row_scratch.extend(normalized.row_iter(v));
        let diag = ws.row_scratch.iter().position(|&(c, _)| c == v);
        ws.others.clear();
        match diag {
            Some(d) => {
                ws.others.extend_from_slice(&ws.row_scratch[..d]);
                ws.others.extend_from_slice(&ws.row_scratch[d + 1..]);
            }
            None => ws.others.extend_from_slice(&ws.row_scratch),
        }
        let take = fanout.min(ws.others.len());
        sample_indices_into(ws.others.len(), take, rng, ws);
        let scale = ws.others.len() as f32 / take as f32;
        // Merge the diagonal entry into the (column-ascending) picked
        // entries so the row is emitted pre-sorted — the same order the
        // original `sort_unstable_by_key` produced.
        let diag_entry = diag.map(|d| ws.row_scratch[d]);
        let mut diag_pending = diag_entry;
        for idx in 0..ws.picked.len() {
            let (c, raw) = ws.others[ws.picked[idx]];
            if let Some((dc, dv)) = diag_pending {
                if dc < c {
                    if dv != 0.0 {
                        ws.kept_cols.push(dc);
                        ws.kept_vals.push(dv);
                    }
                    diag_pending = None;
                }
            }
            let val = raw * scale;
            if val != 0.0 {
                ws.kept_cols.push(c);
                ws.kept_vals.push(val);
            }
        }
        if let Some((dc, dv)) = diag_pending {
            if dv != 0.0 {
                ws.kept_cols.push(dc);
                ws.kept_vals.push(dv);
            }
        }
        ws.row_ends.push(ws.kept_cols.len());
    }

    // Source set: the dst nodes plus every referenced column, ascending —
    // marked in the node bitmap, then emitted by an ordered scan.
    let mut lo = usize::MAX;
    let mut hi = 0usize;
    for &v in dst {
        ws.seen[v] = true;
        lo = lo.min(v);
        hi = hi.max(v);
    }
    for &c in &ws.kept_cols {
        ws.seen[c] = true;
        lo = lo.min(c);
        hi = hi.max(c);
    }
    let mut src_nodes: Vec<usize> = Vec::new();
    for node in lo..=hi {
        if ws.seen[node] {
            ws.seen[node] = false;
            ws.pos[node] = src_nodes.len() as u32;
            src_nodes.push(node);
        }
    }

    // Assemble the block CSR directly: rows are already in ascending-column
    // order and zero values were dropped at gather time, so this matches
    // `from_triplets` output exactly without the counting sort.
    let mut indptr: Vec<usize> = Vec::with_capacity(dst.len() + 1);
    indptr.push(0);
    indptr.extend_from_slice(&ws.row_ends);
    let indices: Vec<usize> = ws.kept_cols.iter().map(|&c| ws.pos[c] as usize).collect();
    let values: Vec<f32> = ws.kept_vals.clone();
    let adj = CsrMatrix::from_raw_parts(dst.len(), src_nodes.len(), indptr, indices, values);
    let dst_in_src: Vec<usize> = dst.iter().map(|&v| ws.pos[v] as usize).collect();
    SampledBlock {
        dst_nodes: dst.to_vec(),
        src_nodes,
        dst_in_src,
        adj: Arc::new(adj),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetKind;
    use crate::subgraph::tests::{entries, hub_graph};
    use bgc_tensor::Matrix;

    fn sorted_targets(graph: &Graph, count: usize) -> Vec<usize> {
        let mut t: Vec<usize> = graph.split.train.iter().copied().take(count).collect();
        t.sort_unstable();
        t
    }

    #[test]
    fn unbounded_blocks_slice_the_normalized_rows_exactly() {
        let g = DatasetKind::Cora.load_small(3);
        let sampler = NeighborSampler::new(vec![0, 0], 7);
        let targets = sorted_targets(&g, 12);
        let batch = sampler.sample(&g.normalized, &targets, 0);
        assert_eq!(batch.num_layers(), 2);
        assert_eq!(batch.blocks[1].dst_nodes, targets);
        for block in &batch.blocks {
            for (r, &v) in block.dst_nodes.iter().enumerate() {
                let full: Vec<(usize, f32)> = g.normalized.row_iter(v).collect();
                let sliced: Vec<(usize, f32)> = block
                    .adj
                    .row_iter(r)
                    .map(|(c, val)| (block.src_nodes[c], val))
                    .collect();
                assert_eq!(full, sliced, "row of node {} must be an exact slice", v);
            }
        }
        // The dst set of the input-side block is the src set of the next.
        assert_eq!(batch.blocks[0].dst_nodes, batch.blocks[1].src_nodes);
    }

    #[test]
    fn unbounded_block_propagation_is_bit_identical_to_full_batch() {
        let g = DatasetKind::Citeseer.load_small(5);
        let sampler = NeighborSampler::new(vec![0], 1);
        let targets = sorted_targets(&g, 9);
        let batch = sampler.sample(&g.normalized, &targets, 3);
        let block = &batch.blocks[0];
        let x = Matrix::from_fn(g.num_nodes(), 4, |r, c| {
            ((r * 7 + c * 3) % 11) as f32 * 0.25
        });
        let full = g.normalized.spmm(&x);
        let local_x = x.select_rows(&block.src_nodes);
        let sampled = block.adj.spmm(&local_x);
        for (r, &v) in block.dst_nodes.iter().enumerate() {
            for c in 0..4 {
                assert_eq!(
                    sampled.get(r, c).to_bits(),
                    full.get(v, c).to_bits(),
                    "row {} col {} must match bit-for-bit",
                    v,
                    c
                );
            }
        }
    }

    #[test]
    fn fanout_caps_bound_row_nnz_and_keep_the_diagonal() {
        let g = DatasetKind::Reddit.load_small(1);
        let fanout = 3;
        let sampler = NeighborSampler::new(vec![fanout, fanout], 11);
        let targets = sorted_targets(&g, 16);
        let batch = sampler.sample(&g.normalized, &targets, 5);
        for block in &batch.blocks {
            for (r, &v) in block.dst_nodes.iter().enumerate() {
                // Capped rows keep the diagonal plus at most `fanout` others.
                assert!(block.adj.row_nnz(r) <= fanout + 1);
                let has_diag = block.adj.row_iter(r).any(|(c, _)| block.src_nodes[c] == v);
                assert!(has_diag, "self entry of node {} must survive the cap", v);
            }
            // Capped rows are rescaled so the row sum stays close to the
            // uncapped row sum (unbiased in expectation).
            let (r, &v) = block
                .dst_nodes
                .iter()
                .enumerate()
                .max_by_key(|&(_, &v)| g.normalized.row_nnz(v))
                .unwrap();
            if g.normalized.row_nnz(v) > fanout + 1 {
                let full: f32 = g.normalized.row_iter(v).map(|(_, x)| x).sum();
                let capped: f32 = block.adj.row_iter(r).map(|(_, x)| x).sum();
                assert!(
                    (capped - full).abs() < full,
                    "rescaled row sum {} too far from {}",
                    capped,
                    full
                );
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_and_keyed() {
        let g = DatasetKind::Flickr.load_small(2);
        let sampler = NeighborSampler::new(vec![4, 4], 23);
        let targets = sorted_targets(&g, 20);
        let a = sampler.sample(&g.normalized, &targets, 9);
        let b = sampler.sample(&g.normalized, &targets, 9);
        for (x, y) in a.blocks.iter().zip(b.blocks.iter()) {
            assert_eq!(x.src_nodes, y.src_nodes);
            assert_eq!(*x.adj, *y.adj);
        }
        // A different batch key draws a different neighbourhood.
        let c = sampler.sample(&g.normalized, &targets, 10);
        assert!(
            a.blocks[0].src_nodes != c.blocks[0].src_nodes || *a.blocks[0].adj != *c.blocks[0].adj,
            "different keys must sample differently"
        );
    }

    #[test]
    fn targets_are_always_inside_the_input_nodes() {
        let g = DatasetKind::Cora.load_small(4);
        let sampler = NeighborSampler::new(vec![2, 2], 3);
        let targets = sorted_targets(&g, 15);
        let batch = sampler.sample(&g.normalized, &targets, 1);
        let inputs = batch.input_nodes();
        let positions = batch.target_positions_in(inputs);
        for (t, &p) in targets.iter().zip(positions.iter()) {
            assert_eq!(inputs[p], *t);
        }
    }

    #[test]
    fn sampled_computation_graph_caps_the_frontier() {
        let g = DatasetKind::Reddit.load_small(6);
        let sampler = NeighborSampler::new(vec![3, 3], 5);
        let center = g.split.test[0];
        let sub = sampler.sampled_computation_graph(&g, center);
        assert_eq!(sub.nodes[0], center);
        assert_eq!(sub.center, 0);
        // Two hops with fanout 3: at most 1 + 3 + 9 nodes.
        assert!(sub.num_nodes() <= 13, "got {} nodes", sub.num_nodes());
        let again = sampler.sampled_computation_graph(&g, center);
        assert_eq!(sub.nodes, again.nodes, "extraction must be deterministic");
    }

    /// [`NeighborSampler::sampled_computation_graph`] as it was with a
    /// graph-sized `seen` table and [`CsrMatrix::induced_submatrix`]: the
    /// nodes and the adjacency the included-sized lookup must reproduce.
    fn sampled_reference(
        sampler: &NeighborSampler,
        graph: &Graph,
        center: usize,
    ) -> (Vec<usize>, CsrMatrix) {
        let mut rng = rng_from_seed(sampler.seed ^ mix_seed(&[center as u64, 0x5ab]));
        let mut included: Vec<usize> = vec![center];
        let mut seen = vec![false; graph.num_nodes()];
        seen[center] = true;
        let mut frontier = vec![center];
        for &fanout in sampler.fanouts.iter().rev() {
            let mut next = Vec::new();
            for &u in &frontier {
                let fresh: Vec<usize> = graph
                    .adjacency
                    .row_indices(u)
                    .iter()
                    .copied()
                    .filter(|&v| !seen[v])
                    .collect();
                let chosen: Vec<usize> = if fanout == 0 || fresh.len() <= fanout {
                    fresh
                } else {
                    let mut picked = sample_without_replacement(fresh.len(), fanout, &mut rng);
                    picked.sort_unstable();
                    picked.into_iter().map(|i| fresh[i]).collect()
                };
                for v in chosen {
                    seen[v] = true;
                    included.push(v);
                    next.push(v);
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        let adjacency = graph.adjacency.induced_submatrix(&included);
        (included, adjacency)
    }

    #[test]
    fn sampled_extraction_matches_the_graph_sized_reference() {
        let graphs = [
            DatasetKind::Cora.load_small(3),
            DatasetKind::Reddit.load_small(3),
            hub_graph(),
        ];
        for graph in &graphs {
            for fanouts in [vec![10, 10], vec![3, 3], vec![0, 4], vec![5], vec![2, 2, 2]] {
                let sampler = NeighborSampler::new(fanouts.clone(), 41);
                for center in (0..graph.num_nodes()).step_by(7).chain(0..6) {
                    let sub = sampler.sampled_computation_graph(graph, center);
                    let (nodes, adjacency) = sampled_reference(&sampler, graph, center);
                    let case = format!("{} centre {center}, fanouts {fanouts:?}", graph.name);
                    assert_eq!(sub.nodes, nodes, "{case}");
                    assert_eq!(entries(&sub.adjacency), entries(&adjacency), "{case}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_targets_are_rejected() {
        let g = DatasetKind::Cora.load_small(1);
        let sampler = NeighborSampler::new(vec![0], 0);
        let _ = sampler.sample(&g.normalized, &[5, 3], 0);
    }
}
