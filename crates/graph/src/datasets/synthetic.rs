//! Class-conditioned stochastic block model (SBM) graph generator.
//!
//! This is the stand-in for the real Planetoid / GraphSAINT downloads (see
//! "Substitutions" in the workspace README).  The generator produces graphs
//! with:
//!
//! * a configurable number of nodes, classes and features,
//! * class-homophilous structure (a target fraction of intra-class edges),
//! * class-separable Gaussian features (a per-class centre plus noise),
//! * a random train/val/test split of the requested sizes.
//!
//! All randomness flows from a single `u64` seed.
//!
//! Two generation paths share the statistics model:
//!
//! * [`generate_sbm_graph`] — exact rejection sampling to the edge targets,
//!   deduplicated through a sorted-key [`EdgeSet`] (8 bytes per edge instead
//!   of the former `HashSet<(usize, usize)>` plus a separate edge list —
//!   roughly 4x lower peak memory during generation, bit-identical graphs).
//! * [`generate_sbm_graph_chunked`] — the paper-scale path: candidate edges
//!   are drawn in bounded chunks, packed into `u64` keys and deduplicated by
//!   sort + dedup, then the CSR is built directly by counting sort.  No
//!   global hash set is ever materialized, so full-scale Flickr/Reddit
//!   (90k–233k nodes, millions of edges) generate in seconds within a small
//!   memory envelope.

use rand::Rng;

use bgc_tensor::init::{
    rng_from_seed, sample_standard_normal, sample_without_replacement, shuffle,
};
use bgc_tensor::{CsrMatrix, Matrix};

use crate::graph::{Graph, TaskSetting};
use crate::splits::DataSplit;

/// Specification of a synthetic benchmark graph.
#[derive(Clone, Debug)]
pub struct SbmSpec {
    /// Dataset name carried into the generated [`Graph`].
    pub name: &'static str,
    /// Number of nodes `N`.
    pub num_nodes: usize,
    /// Number of classes `C`.
    pub num_classes: usize,
    /// Feature dimensionality `d`.
    pub num_features: usize,
    /// Target average (undirected) degree.
    pub avg_degree: f32,
    /// Target fraction of intra-class edges (edge homophily).
    pub homophily: f32,
    /// Standard deviation of the per-node feature noise relative to the
    /// class-centre magnitude; larger values make classification harder.
    pub feature_noise: f32,
    /// Training split size.
    pub train_size: usize,
    /// Validation split size.
    pub val_size: usize,
    /// Test split size.
    pub test_size: usize,
    /// Transductive or inductive protocol.
    pub setting: TaskSetting,
    /// Note recording any down-scaling relative to the paper's dataset.
    pub scale_note: Option<&'static str>,
}

impl SbmSpec {
    /// Expected number of undirected edges implied by the average degree.
    pub fn expected_edges(&self) -> usize {
        ((self.num_nodes as f32) * self.avg_degree / 2.0).round() as usize
    }
}

fn validate_spec(spec: &SbmSpec) {
    assert!(spec.num_classes >= 2, "need at least two classes");
    assert!(
        spec.num_nodes >= spec.num_classes * 4,
        "need at least 4 nodes per class"
    );
    assert!(
        (0.0..=1.0).contains(&spec.homophily),
        "homophily must lie in [0, 1]"
    );
}

/// Undirected-edge set stored as sorted packed `u64` keys (`min * N + max`)
/// with a small unsorted insertion tail, merged by sort once the tail grows.
///
/// This replaces the former `HashSet<(usize, usize)>` + `Vec<(usize, usize)>`
/// pair of the generator: membership answers (and therefore the rejection
/// control flow and every RNG draw) are identical, but each edge costs 8
/// bytes instead of ~35, which measurably lowers the peak memory of graph
/// generation.
struct EdgeSet {
    n: u64,
    sorted: Vec<u64>,
    tail: Vec<u64>,
}

impl EdgeSet {
    const TAIL_LIMIT: usize = 1024;

    fn with_capacity(num_nodes: usize, capacity: usize) -> Self {
        Self {
            n: num_nodes as u64,
            sorted: Vec::with_capacity(capacity),
            tail: Vec::with_capacity(Self::TAIL_LIMIT),
        }
    }

    fn key(&self, u: usize, v: usize) -> u64 {
        let (a, b) = (u.min(v) as u64, u.max(v) as u64);
        a * self.n + b
    }

    fn contains(&self, key: u64) -> bool {
        self.sorted.binary_search(&key).is_ok() || self.tail.contains(&key)
    }

    /// Inserts the undirected edge; `false` for self-loops and duplicates.
    fn insert(&mut self, u: usize, v: usize) -> bool {
        if u == v {
            return false;
        }
        let key = self.key(u, v);
        if self.contains(key) {
            return false;
        }
        self.tail.push(key);
        // Amortized merge schedule: re-sorting the whole set every
        // TAIL_LIMIT insertions would be quadratic-ish in the edge count,
        // so the tail is allowed to grow with the sorted portion (total
        // work stays O(E log E)); membership answers are unaffected by
        // when the merge happens.
        if self.tail.len() >= Self::TAIL_LIMIT.max(self.sorted.len() / 4) {
            self.merge();
        }
        true
    }

    fn merge(&mut self) {
        self.sorted.append(&mut self.tail);
        self.sorted.sort_unstable();
    }

    /// Decodes every stored edge as `(min, max)` pairs.
    fn into_edges(mut self) -> Vec<(usize, usize)> {
        self.merge();
        let n = self.n;
        self.sorted
            .into_iter()
            .map(|key| ((key / n) as usize, (key % n) as usize))
            .collect()
    }
}

/// Generates a graph from the specification, deterministically from `seed`.
pub fn generate_sbm_graph(spec: &SbmSpec, seed: u64) -> Graph {
    validate_spec(spec);
    let mut rng = rng_from_seed(seed);

    // ---- labels: balanced assignment, then shuffled ---------------------
    let mut labels: Vec<usize> = (0..spec.num_nodes).map(|i| i % spec.num_classes).collect();
    shuffle(&mut labels, &mut rng);
    let mut nodes_per_class: Vec<Vec<usize>> = vec![Vec::new(); spec.num_classes];
    for (node, &label) in labels.iter().enumerate() {
        nodes_per_class[label].push(node);
    }

    // ---- edges: sample intra / inter class pairs to target counts -------
    let total_edges = spec.expected_edges();
    let intra_target = ((total_edges as f32) * spec.homophily).round() as usize;
    let inter_target = total_edges.saturating_sub(intra_target);
    let mut edge_set = EdgeSet::with_capacity(spec.num_nodes, total_edges);
    let mut degree = vec![0usize; spec.num_nodes];

    // Intra-class edges.
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < intra_target && attempts < intra_target * 8 + 64 {
        attempts += 1;
        let c = rng.gen_range(0..spec.num_classes);
        let members = &nodes_per_class[c];
        if members.len() < 2 {
            continue;
        }
        let u = members[rng.gen_range(0..members.len())];
        let v = members[rng.gen_range(0..members.len())];
        if edge_set.insert(u, v) {
            degree[u] += 1;
            degree[v] += 1;
            added += 1;
        }
    }
    // Inter-class edges.
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < inter_target && attempts < inter_target * 8 + 64 {
        attempts += 1;
        let u = rng.gen_range(0..spec.num_nodes);
        let v = rng.gen_range(0..spec.num_nodes);
        if labels[u] == labels[v] {
            continue;
        }
        if edge_set.insert(u, v) {
            degree[u] += 1;
            degree[v] += 1;
            added += 1;
        }
    }
    // Guarantee a minimum of connectivity: attach isolated nodes to a random
    // same-class partner so every node participates in message passing.
    for node in 0..spec.num_nodes {
        if degree[node] == 0 {
            let members = &nodes_per_class[labels[node]];
            let mut partner = members[rng.gen_range(0..members.len())];
            if partner == node {
                partner = (node + 1) % spec.num_nodes;
            }
            if edge_set.insert(node, partner) {
                degree[node] += 1;
                degree[partner] += 1;
            }
        }
    }
    let edges = edge_set.into_edges();
    let adjacency = CsrMatrix::from_edges(spec.num_nodes, &edges).symmetrize();

    // ---- features: per-class Gaussian centre + noise, L2-normalized ------
    let centres = bgc_tensor::init::randn(spec.num_classes, spec.num_features, 0.0, 1.0, &mut rng);
    let noise = bgc_tensor::init::randn(
        spec.num_nodes,
        spec.num_features,
        0.0,
        spec.feature_noise,
        &mut rng,
    );
    let mut features = Matrix::zeros(spec.num_nodes, spec.num_features);
    for (node, &label) in labels.iter().enumerate() {
        let centre = centres.row(label);
        let noise_row = noise.row(node);
        let out = features.row_mut(node);
        for ((o, &c), &n) in out.iter_mut().zip(centre.iter()).zip(noise_row.iter()) {
            *o = c + n;
        }
    }
    let features = features.l2_normalize_rows();

    // ---- split ------------------------------------------------------------
    let split = DataSplit::random(
        spec.num_nodes,
        spec.train_size,
        spec.val_size,
        spec.test_size,
        &mut rng,
    );

    Graph::new(
        spec.name,
        adjacency,
        features,
        labels,
        spec.num_classes,
        split,
        spec.setting,
    )
}

/// Candidate edges drawn per chunk by the chunked generator.
const EDGE_CHUNK: usize = 1 << 20;

/// Generates a paper-scale graph from the specification, deterministically
/// from `seed`, without materializing any global edge set.
///
/// Candidate endpoint pairs are drawn in chunks (collisions are *not*
/// rejected online), packed into `u64` keys, deduplicated by sort + dedup and
/// — when collisions leave a surplus — subsampled back to the exact edge
/// target, which keeps the draw unbiased.  The symmetric CSR is then built in
/// one counting-sort pass ([`CsrMatrix::from_triplets`]); features are
/// written row by row (centre + noise) instead of materializing a separate
/// full-size noise matrix.
///
/// The statistics model (class balance, homophily, degree target, feature
/// separability) matches [`generate_sbm_graph`]; the RNG schedule differs, so
/// the two paths produce different — but individually deterministic — graphs.
pub fn generate_sbm_graph_chunked(spec: &SbmSpec, seed: u64) -> Graph {
    validate_spec(spec);
    let mut rng = rng_from_seed(seed ^ 0xc4a9_11ed);

    // ---- labels ---------------------------------------------------------
    let mut labels: Vec<usize> = (0..spec.num_nodes).map(|i| i % spec.num_classes).collect();
    shuffle(&mut labels, &mut rng);
    let mut nodes_per_class: Vec<Vec<usize>> = vec![Vec::new(); spec.num_classes];
    for (node, &label) in labels.iter().enumerate() {
        nodes_per_class[label].push(node);
    }

    // ---- edges: chunked candidates, sort + dedup, exact subsample -------
    let total_edges = spec.expected_edges();
    let intra_target = ((total_edges as f32) * spec.homophily).round() as usize;
    let inter_target = total_edges.saturating_sub(intra_target);
    let n64 = spec.num_nodes as u64;

    let mut keys: Vec<u64> = Vec::with_capacity(total_edges + total_edges / 16);
    for (target, intra) in [(intra_target, true), (inter_target, false)] {
        // Intra and inter pairs can never collide with each other (their
        // endpoint labels differ), so each phase dedups independently into
        // the shared key vector.
        let phase_start = keys.len();
        let mut drawn = 0usize;
        let budget = target * 8 + 64;
        loop {
            let unique = keys.len() - phase_start;
            if unique >= target || drawn >= budget {
                break;
            }
            // Oversample the shortfall a little to absorb collisions.
            let want = (target - unique) + (target - unique) / 16 + 32;
            let chunk = want.min(EDGE_CHUNK).min(budget - drawn);
            for _ in 0..chunk {
                drawn += 1;
                let (u, v) = if intra {
                    let members = &nodes_per_class[rng.gen_range(0..spec.num_classes)];
                    if members.len() < 2 {
                        continue;
                    }
                    (
                        members[rng.gen_range(0..members.len())],
                        members[rng.gen_range(0..members.len())],
                    )
                } else {
                    (
                        rng.gen_range(0..spec.num_nodes),
                        rng.gen_range(0..spec.num_nodes),
                    )
                };
                if u == v || (intra != (labels[u] == labels[v])) {
                    continue;
                }
                keys.push((u.min(v) as u64) * n64 + u.max(v) as u64);
            }
            keys[phase_start..].sort_unstable();
            keys.dedup(); // phases are numerically disjoint; global dedup is safe
            if keys.len() - phase_start > target {
                // Collisions over-shot the exact target: subsample back down
                // (uniform over the deduplicated candidates — unbiased).
                let surplus_pool = keys.len() - phase_start;
                let mut picked = sample_without_replacement(surplus_pool, target, &mut rng);
                picked.sort_unstable();
                let phase: Vec<u64> = picked.into_iter().map(|i| keys[phase_start + i]).collect();
                keys.truncate(phase_start);
                keys.extend(phase);
            }
        }
    }

    // ---- isolated-node fix (membership by binary search per phase) ------
    let mut degree = vec![0u32; spec.num_nodes];
    for &key in &keys {
        degree[(key / n64) as usize] += 1;
        degree[(key % n64) as usize] += 1;
    }
    keys.sort_unstable();
    let mut fix_tail: Vec<u64> = Vec::new();
    for node in 0..spec.num_nodes {
        if degree[node] == 0 {
            let members = &nodes_per_class[labels[node]];
            let mut partner = members[rng.gen_range(0..members.len())];
            if partner == node {
                partner = (node + 1) % spec.num_nodes;
            }
            let key = (node.min(partner) as u64) * n64 + node.max(partner) as u64;
            if keys.binary_search(&key).is_err() && !fix_tail.contains(&key) {
                fix_tail.push(key);
                degree[node] += 1;
                degree[partner] += 1;
            }
        }
    }
    keys.extend(fix_tail);

    // ---- CSR via counting sort (both directions, no HashSet) ------------
    let mut triplets: Vec<(usize, usize, f32)> = Vec::with_capacity(keys.len() * 2);
    for &key in &keys {
        let (u, v) = ((key / n64) as usize, (key % n64) as usize);
        triplets.push((u, v, 1.0));
        triplets.push((v, u, 1.0));
    }
    drop(keys);
    let adjacency = CsrMatrix::from_triplets(spec.num_nodes, spec.num_nodes, &triplets);
    drop(triplets);

    // ---- features: centre + per-row noise, no full noise matrix ---------
    let centres = bgc_tensor::init::randn(spec.num_classes, spec.num_features, 0.0, 1.0, &mut rng);
    let mut features = Matrix::zeros(spec.num_nodes, spec.num_features);
    for (node, &label) in labels.iter().enumerate() {
        let centre = centres.row(label);
        let out = features.row_mut(node);
        for (o, &c) in out.iter_mut().zip(centre.iter()) {
            *o = c + spec.feature_noise * sample_standard_normal(&mut rng);
        }
    }
    let features = features.l2_normalize_rows();

    let split = DataSplit::random(
        spec.num_nodes,
        spec.train_size,
        spec.val_size,
        spec.test_size,
        &mut rng,
    );

    Graph::new(
        spec.name,
        adjacency,
        features,
        labels,
        spec.num_classes,
        split,
        spec.setting,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SbmSpec {
        SbmSpec {
            name: "test-sbm",
            num_nodes: 300,
            num_classes: 5,
            num_features: 32,
            avg_degree: 6.0,
            homophily: 0.8,
            feature_noise: 0.8,
            train_size: 60,
            val_size: 60,
            test_size: 120,
            setting: TaskSetting::Transductive,
            scale_note: None,
        }
    }

    #[test]
    fn generator_matches_requested_sizes() {
        let g = generate_sbm_graph(&small_spec(), 1);
        assert_eq!(g.num_nodes(), 300);
        assert_eq!(g.num_classes, 5);
        assert_eq!(g.num_features(), 32);
        assert_eq!(g.split.train.len(), 60);
        assert_eq!(g.split.test.len(), 120);
    }

    #[test]
    fn generator_is_deterministic() {
        let a = generate_sbm_graph(&small_spec(), 99);
        let b = generate_sbm_graph(&small_spec(), 99);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.adjacency.nnz(), b.adjacency.nnz());
        assert!(a.features.approx_eq(&b.features, 0.0));
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_sbm_graph(&small_spec(), 1);
        let b = generate_sbm_graph(&small_spec(), 2);
        assert_ne!(a.labels, b.labels);
    }

    #[test]
    fn homophily_close_to_target() {
        let g = generate_sbm_graph(&small_spec(), 3);
        let h = g.edge_homophily();
        assert!(
            (h - 0.8).abs() < 0.1,
            "homophily {} too far from target 0.8",
            h
        );
    }

    #[test]
    fn average_degree_close_to_target() {
        let g = generate_sbm_graph(&small_spec(), 4);
        let avg = 2.0 * g.num_edges() as f32 / g.num_nodes() as f32;
        assert!(
            (avg - 6.0).abs() < 1.5,
            "average degree {} too far from 6",
            avg
        );
    }

    #[test]
    fn no_isolated_nodes() {
        let g = generate_sbm_graph(&small_spec(), 5);
        assert!(g.degrees().iter().all(|&d| d > 0));
    }

    /// The sorted-key [`EdgeSet`] must reproduce the former
    /// `HashSet<(usize, usize)>` dedup exactly: same accept/reject answers ⇒
    /// same RNG consumption ⇒ identical graphs under the same seed.  This
    /// re-implements the historical hash-set generator verbatim and compares
    /// full graphs.
    #[test]
    fn edge_set_matches_the_historical_hashset_generator() {
        use std::collections::HashSet;

        fn reference_hashset_graph(spec: &SbmSpec, seed: u64) -> Graph {
            let mut rng = rng_from_seed(seed);
            let mut labels: Vec<usize> =
                (0..spec.num_nodes).map(|i| i % spec.num_classes).collect();
            shuffle(&mut labels, &mut rng);
            let mut nodes_per_class: Vec<Vec<usize>> = vec![Vec::new(); spec.num_classes];
            for (node, &label) in labels.iter().enumerate() {
                nodes_per_class[label].push(node);
            }
            let total_edges = spec.expected_edges();
            let intra_target = ((total_edges as f32) * spec.homophily).round() as usize;
            let inter_target = total_edges.saturating_sub(intra_target);
            let mut edge_set: HashSet<(usize, usize)> = HashSet::with_capacity(total_edges * 2);
            let mut edges: Vec<(usize, usize)> = Vec::with_capacity(total_edges);
            let push_edge = |u: usize,
                             v: usize,
                             edge_set: &mut HashSet<(usize, usize)>,
                             edges: &mut Vec<(usize, usize)>| {
                if u == v {
                    return false;
                }
                let key = (u.min(v), u.max(v));
                if edge_set.insert(key) {
                    edges.push(key);
                    true
                } else {
                    false
                }
            };
            let mut added = 0usize;
            let mut attempts = 0usize;
            while added < intra_target && attempts < intra_target * 8 + 64 {
                attempts += 1;
                let c = rng.gen_range(0..spec.num_classes);
                let members = &nodes_per_class[c];
                if members.len() < 2 {
                    continue;
                }
                let u = members[rng.gen_range(0..members.len())];
                let v = members[rng.gen_range(0..members.len())];
                if push_edge(u, v, &mut edge_set, &mut edges) {
                    added += 1;
                }
            }
            let mut added = 0usize;
            let mut attempts = 0usize;
            while added < inter_target && attempts < inter_target * 8 + 64 {
                attempts += 1;
                let u = rng.gen_range(0..spec.num_nodes);
                let v = rng.gen_range(0..spec.num_nodes);
                if labels[u] == labels[v] {
                    continue;
                }
                if push_edge(u, v, &mut edge_set, &mut edges) {
                    added += 1;
                }
            }
            let mut degree = vec![0usize; spec.num_nodes];
            for &(u, v) in &edges {
                degree[u] += 1;
                degree[v] += 1;
            }
            for node in 0..spec.num_nodes {
                if degree[node] == 0 {
                    let members = &nodes_per_class[labels[node]];
                    let mut partner = members[rng.gen_range(0..members.len())];
                    if partner == node {
                        partner = (node + 1) % spec.num_nodes;
                    }
                    if push_edge(node, partner, &mut edge_set, &mut edges) {
                        degree[node] += 1;
                        degree[partner] += 1;
                    }
                }
            }
            let adjacency = CsrMatrix::from_edges(spec.num_nodes, &edges).symmetrize();
            let centres =
                bgc_tensor::init::randn(spec.num_classes, spec.num_features, 0.0, 1.0, &mut rng);
            let noise = bgc_tensor::init::randn(
                spec.num_nodes,
                spec.num_features,
                0.0,
                spec.feature_noise,
                &mut rng,
            );
            let mut features = Matrix::zeros(spec.num_nodes, spec.num_features);
            for (node, &label) in labels.iter().enumerate() {
                let centre = centres.row(label);
                let noise_row = noise.row(node);
                let out = features.row_mut(node);
                for ((o, &c), &n) in out.iter_mut().zip(centre.iter()).zip(noise_row.iter()) {
                    *o = c + n;
                }
            }
            let features = features.l2_normalize_rows();
            let split = DataSplit::random(
                spec.num_nodes,
                spec.train_size,
                spec.val_size,
                spec.test_size,
                &mut rng,
            );
            Graph::new(
                spec.name,
                adjacency,
                features,
                labels,
                spec.num_classes,
                split,
                spec.setting,
            )
        }

        for seed in [0u64, 7, 99] {
            let new = generate_sbm_graph(&small_spec(), seed);
            let old = reference_hashset_graph(&small_spec(), seed);
            assert_eq!(new.labels, old.labels);
            assert_eq!(*new.adjacency, *old.adjacency, "seed {}", seed);
            assert!(new.features.approx_eq(&old.features, 0.0), "seed {}", seed);
            assert_eq!(new.split, old.split);
        }
    }

    #[test]
    fn chunked_generator_is_deterministic_and_hits_targets() {
        let spec = SbmSpec {
            num_nodes: 4000,
            train_size: 800,
            val_size: 400,
            test_size: 800,
            ..small_spec()
        };
        let a = generate_sbm_graph_chunked(&spec, 42);
        let b = generate_sbm_graph_chunked(&spec, 42);
        assert_eq!(a.labels, b.labels);
        assert_eq!(*a.adjacency, *b.adjacency);
        assert!(a.features.approx_eq(&b.features, 0.0));
        assert_eq!(a.split, b.split);

        // Edge count lands on the target (within the isolated-node fix-ups).
        let target = spec.expected_edges();
        assert!(
            a.num_edges() >= target && a.num_edges() <= target + spec.num_nodes / 10,
            "edge count {} too far from target {}",
            a.num_edges(),
            target
        );
        // Homophily and degree statistics follow the spec.
        assert!((a.edge_homophily() - spec.homophily).abs() < 0.08);
        assert!(a.degrees().iter().all(|&d| d > 0), "no isolated nodes");
        // Adjacency is symmetric without self-loops.
        for (r, c, v) in a.adjacency.triplets().into_iter().take(5000) {
            assert_ne!(r, c, "no self loops");
            assert_eq!(a.adjacency.get(c, r), v, "symmetric");
        }
    }

    #[test]
    fn chunked_features_are_class_separable() {
        let spec = SbmSpec {
            num_nodes: 2000,
            train_size: 400,
            val_size: 200,
            test_size: 400,
            ..small_spec()
        };
        let g = generate_sbm_graph_chunked(&spec, 6);
        let mut centroids = vec![vec![0.0f32; g.num_features()]; g.num_classes];
        let mut counts = vec![0usize; g.num_classes];
        for i in 0..g.num_nodes() {
            counts[g.labels[i]] += 1;
            for (c, &v) in centroids[g.labels[i]].iter_mut().zip(g.features.row(i)) {
                *c += v;
            }
        }
        for (c, n) in centroids.iter_mut().zip(counts.iter()) {
            for v in c.iter_mut() {
                *v /= *n as f32;
            }
        }
        let mut correct = 0usize;
        for i in 0..g.num_nodes() {
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for (k, c) in centroids.iter().enumerate() {
                let d = Matrix::euclidean_distance(g.features.row(i), c);
                if d < best_d {
                    best_d = d;
                    best = k;
                }
            }
            if best == g.labels[i] {
                correct += 1;
            }
        }
        let acc = correct as f32 / g.num_nodes() as f32;
        assert!(acc > 0.5, "nearest-centroid accuracy {} too low", acc);
    }

    #[test]
    fn features_are_class_separable() {
        // Nearest-class-centroid classification on raw features should beat
        // random guessing by a wide margin; the datasets must carry signal.
        let g = generate_sbm_graph(&small_spec(), 6);
        let mut centroids = vec![vec![0.0f32; g.num_features()]; g.num_classes];
        let mut counts = vec![0usize; g.num_classes];
        for i in 0..g.num_nodes() {
            counts[g.labels[i]] += 1;
            for (c, &v) in centroids[g.labels[i]].iter_mut().zip(g.features.row(i)) {
                *c += v;
            }
        }
        for (c, n) in centroids.iter_mut().zip(counts.iter()) {
            for v in c.iter_mut() {
                *v /= *n as f32;
            }
        }
        let mut correct = 0usize;
        for i in 0..g.num_nodes() {
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for (k, c) in centroids.iter().enumerate() {
                let d = Matrix::euclidean_distance(g.features.row(i), c);
                if d < best_d {
                    best_d = d;
                    best = k;
                }
            }
            if best == g.labels[i] {
                correct += 1;
            }
        }
        let acc = correct as f32 / g.num_nodes() as f32;
        assert!(acc > 0.5, "nearest-centroid accuracy {} too low", acc);
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn rejects_single_class() {
        let mut spec = small_spec();
        spec.num_classes = 1;
        let _ = generate_sbm_graph(&spec, 0);
    }
}
