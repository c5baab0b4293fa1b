//! Computation-graph extraction.
//!
//! A GNN prediction for node `v_i` only depends on its k-hop neighbourhood
//! (its *computation graph* `G_C^i` in the paper's notation).  The trigger
//! generator update (Eq. 13/17) evaluates the surrogate model on the
//! computation graph of each sampled node with a trigger attached, so this
//! module extracts induced k-hop subgraphs with a known position for the
//! centre node.  A computation graph is node ids plus their induced
//! adjacency: its features and labels are the graph's rows of those ids.
//! Extraction allocates only in proportion to the nodes it includes, never
//! to the graph.

use bgc_tensor::CsrMatrix;

use crate::graph::Graph;

/// The k-hop computation graph of a centre node.
#[derive(Clone, Debug)]
pub struct ComputationGraph {
    /// Original node indices; `nodes[0]` is the centre node.
    pub nodes: Vec<usize>,
    /// Induced adjacency (same order as `nodes`), *not* normalized.
    pub adjacency: CsrMatrix,
    /// Index of the centre node inside this subgraph (always 0).
    pub center: usize,
}

impl ComputationGraph {
    /// Number of nodes in the computation graph.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// Words of [`Included`]'s filter: one bit per node id modulo 1024.
const FILTER_WORDS: usize = 16;

/// The filter word and bit of `node`.
fn filter_bit(node: usize) -> (usize, u64) {
    ((node / 64) % FILTER_WORDS, 1 << (node % 64))
}

/// The nodes an extraction has included, in inclusion order, with lookups
/// sized by them rather than by the graph: `index` holds `(node id,
/// position in nodes)` sorted by id, and `filter` marks the included ids
/// modulo 1024, so most ids that are not included miss without a search.
pub(crate) struct Included {
    nodes: Vec<usize>,
    index: Vec<(usize, usize)>,
    filter: [u64; FILTER_WORDS],
}

impl Included {
    /// The set holding only `center`.
    pub(crate) fn new(center: usize) -> Self {
        let mut included = Self {
            nodes: Vec::new(),
            index: Vec::new(),
            filter: [0; FILTER_WORDS],
        };
        included.insert(center);
        included
    }

    /// `node`'s position in inclusion order, if it is included.
    fn position(&self, node: usize) -> Option<usize> {
        let (word, bit) = filter_bit(node);
        if self.filter[word] & bit == 0 {
            return None;
        }
        let at = self.index.binary_search_by_key(&node, |&(id, _)| id).ok()?;
        Some(self.index[at].1)
    }

    /// Whether `node` is included.
    pub(crate) fn contains(&self, node: usize) -> bool {
        self.position(node).is_some()
    }

    /// Includes `node` unless it already is; `true` when it was added.
    pub(crate) fn insert(&mut self, node: usize) -> bool {
        let Err(at) = self.index.binary_search_by_key(&node, |&(id, _)| id) else {
            return false;
        };
        self.index.insert(at, (node, self.nodes.len()));
        self.nodes.push(node);
        let (word, bit) = filter_bit(node);
        self.filter[word] |= bit;
        true
    }

    /// The computation graph of the included nodes, centred on the first:
    /// the induced adjacency of [`CsrMatrix::induced_submatrix`], relabelled
    /// through these lookups instead of a graph-sized position table.
    pub(crate) fn into_graph(self, adjacency: &CsrMatrix) -> ComputationGraph {
        let mut triplets = Vec::new();
        for (new_r, &old_r) in self.nodes.iter().enumerate() {
            for (c, v) in adjacency.row_iter(old_r) {
                if let Some(new_c) = self.position(c) {
                    triplets.push((new_r, new_c, v));
                }
            }
        }
        let n = self.nodes.len();
        ComputationGraph {
            nodes: self.nodes,
            adjacency: CsrMatrix::from_triplets(n, n, &triplets),
            center: 0,
        }
    }
}

/// Extracts the k-hop computation graph of `center`, optionally capping the
/// number of neighbours expanded per node (`max_per_hop`) to keep the
/// extraction tractable on dense hubs (Reddit-style graphs).
pub fn k_hop_subgraph(
    graph: &Graph,
    center: usize,
    k: usize,
    max_per_hop: Option<usize>,
) -> ComputationGraph {
    assert!(center < graph.num_nodes(), "center node out of range");
    let mut included = Included::new(center);
    let mut frontier = vec![center];
    for _ in 0..k {
        let mut next = Vec::new();
        for &u in &frontier {
            let mut added = 0usize;
            for &v in graph.adjacency.row_indices(u) {
                if included.insert(v) {
                    next.push(v);
                    added += 1;
                    if let Some(cap) = max_per_hop {
                        if added >= cap {
                            break;
                        }
                    }
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    included.into_graph(&graph.adjacency)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::datasets::DatasetKind;
    use crate::graph::TaskSetting;
    use crate::splits::DataSplit;
    use bgc_tensor::Matrix;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let adj = CsrMatrix::from_edges(n, &edges).symmetrize();
        let features = Matrix::from_fn(n, 2, |r, c| (r * 2 + c) as f32);
        let labels = vec![0; n];
        let split = DataSplit {
            train: (0..n).collect(),
            val: vec![],
            test: vec![],
        };
        Graph::new(
            "path",
            adj,
            features,
            labels,
            1,
            split,
            TaskSetting::Transductive,
        )
    }

    #[test]
    fn one_hop_contains_neighbours_only() {
        let g = path_graph(6);
        let sub = k_hop_subgraph(&g, 2, 1, None);
        let mut nodes = sub.nodes.clone();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![1, 2, 3]);
        assert_eq!(sub.nodes[0], 2, "centre node listed first");
        assert_eq!(sub.center, 0);
    }

    #[test]
    fn two_hops_expand_further() {
        let g = path_graph(7);
        let sub = k_hop_subgraph(&g, 3, 2, None);
        let mut nodes = sub.nodes.clone();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![1, 2, 3, 4, 5]);
        // Induced adjacency preserves path structure: node 3 (centre) has 2 neighbours.
        let centre_degree = sub.adjacency.row_nnz(0);
        assert_eq!(centre_degree, 2);
    }

    #[test]
    fn per_hop_cap_limits_growth() {
        // Star graph: node 0 connected to all others.
        let edges: Vec<(usize, usize)> = (1..20).map(|i| (0, i)).collect();
        let adj = CsrMatrix::from_edges(20, &edges).symmetrize();
        let features = Matrix::zeros(20, 1);
        let split = DataSplit {
            train: (0..20).collect(),
            val: vec![],
            test: vec![],
        };
        let g = Graph::new(
            "star",
            adj,
            features,
            vec![0; 20],
            1,
            split,
            TaskSetting::Transductive,
        );
        let sub = k_hop_subgraph(&g, 0, 1, Some(5));
        assert_eq!(sub.num_nodes(), 6); // centre + 5 capped neighbours
    }

    /// A 1,300-node graph whose degree sits on a few hubs: nodes 0–5 link
    /// to every node of their residue class (about 215 each) and to each
    /// other, and every other node has two ring neighbours.  Ids past 1,024
    /// share filter bits with smaller ones.
    pub(crate) fn hub_graph() -> Graph {
        let n = 1300;
        let mut edges: Vec<(usize, usize)> = (6..n).map(|i| (i, 6 + (i - 5) % (n - 6))).collect();
        for hub in 0..6 {
            edges.extend((hub + 1..6).map(|other| (hub, other)));
            edges.extend((6..n).filter(|v| v % 6 == hub).map(|v| (hub, v)));
        }
        let adj = CsrMatrix::from_edges(n, &edges).symmetrize();
        let split = DataSplit {
            train: (0..n).collect(),
            val: vec![],
            test: vec![],
        };
        Graph::new(
            "hubs",
            adj,
            Matrix::zeros(n, 1),
            vec![0; n],
            1,
            split,
            TaskSetting::Transductive,
        )
    }

    /// `(row, column, value bits)` of every stored entry.
    pub(crate) fn entries(m: &CsrMatrix) -> Vec<(usize, usize, u32)> {
        m.triplets()
            .into_iter()
            .map(|(r, c, v)| (r, c, v.to_bits()))
            .collect()
    }

    /// [`k_hop_subgraph`] as it was with a graph-sized `seen` table and
    /// [`CsrMatrix::induced_submatrix`]: the nodes and the adjacency the
    /// included-sized lookup must reproduce.
    fn k_hop_reference(
        graph: &Graph,
        center: usize,
        k: usize,
        max_per_hop: Option<usize>,
    ) -> (Vec<usize>, CsrMatrix) {
        let mut included: Vec<usize> = vec![center];
        let mut seen = vec![false; graph.num_nodes()];
        seen[center] = true;
        let mut frontier = vec![center];
        for _ in 0..k {
            let mut next = Vec::new();
            for &u in &frontier {
                let mut added = 0usize;
                for &v in graph.adjacency.row_indices(u) {
                    if !seen[v] {
                        seen[v] = true;
                        included.push(v);
                        next.push(v);
                        added += 1;
                        if max_per_hop.is_some_and(|cap| added >= cap) {
                            break;
                        }
                    }
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
    fn extraction_matches_the_graph_sized_reference() {
        let graphs = [
            DatasetKind::Cora.load_small(3),
            DatasetKind::Reddit.load_small(3),
            hub_graph(),
        ];
        for graph in &graphs {
            let centers = (0..graph.num_nodes()).step_by(7).chain(0..6);
            for center in centers {
                for (k, cap) in [
                    (1, None),
                    (2, None),
                    (2, Some(8)),
                    (2, Some(16)),
                    (3, Some(3)),
                ] {
                    let sub = k_hop_subgraph(graph, center, k, cap);
                    let (nodes, adjacency) = k_hop_reference(graph, center, k, cap);
                    let case = format!("{} centre {center}, k {k}, cap {cap:?}", graph.name);
                    assert_eq!(sub.nodes, nodes, "{case}");
                    assert_eq!(entries(&sub.adjacency), entries(&adjacency), "{case}");
                    assert_eq!(sub.adjacency.rows(), nodes.len(), "{case}");
                }
            }
        }
    }
}
